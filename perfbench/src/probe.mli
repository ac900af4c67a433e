(** The benchmark's event tap: client-facing measurements computed
    online from the framework's typed events, so nothing in the program
    under test changes to be measured.

    All times are simulated seconds.  A sent update, a session request
    and a critical response are {e attempts}; each becomes a failure if
    it has not completed by the horizon, unless it was made inside the
    last 5 seconds (still in flight). *)

type t

val create : horizon:float -> t

val observe : t -> now:float -> Haf_core.Events.t -> unit
(** Subscribe with [Events.subscribe sink (observe t)]. *)

val record_events : t -> max:int -> unit
(** Traced runs: keep the first [max] events observed from now on, as
    the replay input of the isolated monitor timing. *)

val recorded : t -> (float * Haf_core.Events.t) array

val sample_pending : t -> (unit -> int) -> unit
(** Traced runs: read the engine's live-timer count on every event and
    keep the peak.  Reading it schedules nothing, so the simulation is
    not perturbed. *)

val pending_peak : t -> int

val grants : t -> Samples.t
(** First [Session_requested] to first [Session_granted], per session. *)

val updates : t -> Samples.t
(** [Request_sent] to the first [Request_applied {role = Primary}] of the
    same (session, seq) — or, when a backup applied it and that backup
    later takes the session over, to that [Takeover]. *)

val gaps : t -> Samples.t
(** For each session whose serving primary crashed: [Server_crashed] to
    that session's first [Response_received] from another server (or
    from the same server once restarted). *)

val open_gaps : t -> int
(** Sessions still without service at the horizon after a crash. *)

val granted : t -> int

val ungranted : t -> int
(** Sessions requested before the in-flight cutoff and never granted. *)

val applied : t -> int
(** [Request_applied {role = Primary}] events. *)

val ops : t -> int
(** First grants + primary-applied updates + delivered responses. *)

val attempted : t -> int
(** Updates sent, sessions requested and critical responses sent, each
    before the in-flight cutoff. *)

val failed : t -> int
(** Attempts never completed: updates that never reached a primary (as
    {!updates} defines it),
    sessions never granted, critical responses never received. *)

val failures : t -> int * int * int
(** [failed] split as (updates, sessions, critical responses). *)

(** {2 Layer counters seen at the event boundary} *)

val session_seconds : t -> float
(** Sum over granted sessions of (horizon - grant time). *)

val propagations : t -> int

val crash_takeovers : t -> int

val live_takeovers : t -> int
(** Crash takeovers whose new primary held a live backup context. *)

val exchange_msgs : t -> int

val exchange_bytes : t -> int

val digest_records : t -> Samples.t
(** Records per state-exchange digest message. *)

val delta_records : t -> Samples.t

val recovered_wal_records : t -> int

val any_session : t -> string option
(** The first granted session id, as a shape for isolated timings. *)

val summary : t -> (string * string) list
(** Every exact count and simulated-time sample of the run, rendered
    for the traced-vs-untraced comparison. *)
