(** Availability policy: the paper's configurable parameters.

    "The key configurable parameters in our framework are the number of
    servers at each level of synchronization, and the frequency with
    which the primary propagates context to the other servers." *)

type takeover =
  | Resume
      (** Retransmit every response since the last known position.  The
          client may see duplicates, but never misses a response
          (paper: favour duplicates for MPEG I-frames). *)
  | Skip_ahead
      (** Fast-forward to the estimated live position.  No duplicates,
          but responses sent in the uncertainty window may be lost. *)
  | Hybrid
      (** Fast-forward, but retransmit the {e critical} responses from
          the skipped range: the paper's per-frame-class MPEG policy. *)

type t = {
  n_backups : int;
      (** Backup servers per session group (0 reproduces the VoD design
          of [2], i.e. session group = primary only). *)
  propagation_period : float;
      (** Seconds between the primary's context propagations to the
          content group ([2] used 0.5 s). *)
  takeover : takeover;
  rebalance_on_join : bool;
      (** Move sessions off overloaded servers when servers join
          ("the servers evenly re-distribute the clients among them"). *)
  grant_timeout : float;
      (** Client-side: re-send the start-session request if no grant
          arrived within this long. *)
  session_shards : int;
      (** The parameter of the session-to-group map
          {!Naming.group_of_session}; the membership and request paths
          are the same for every value.  0 (the default) gives every
          session its own GCS group, the paper's literal design.
          Positive [k] maps sessions onto [k] fixed shard groups
          instead: requests fan out to the shard's members and
          non-involved servers drop them, so semantics are unchanged,
          but group count — and with it heartbeat advert size and
          view-change work — stays bounded at 10{^5}+ concurrent
          sessions. *)
  batch_propagation : bool;
      (** Which timer sends the [Propagate_batch] multicasts; the
          message and its receive path are the same either way.  Off
          (the default): each session's own timer sends a one-element
          batch every propagation period, the paper's literal design.
          On: each server runs a single propagation timer that puts
          every local primary's snapshot for a content unit into one
          batch per period — same payloads and receiver semantics,
          O(units) instead of O(sessions) framing. *)
  incremental_assign : bool;
      (** Off (the default): every [Start_session] re-runs the full
          deterministic selection over the unit database.  On: a fresh
          session is placed incrementally (least-loaded primary, then
          backups) against a load table maintained across starts —
          identical at every member, so agreement still needs no extra
          round — and any view change falls back to the full
          selection.  Turns session admission from O(sessions) to O(1)
          amortized. *)
}

val default : t
(** 1 backup, 0.5 s propagation, [Resume] takeover, rebalancing on;
    per-session groups, per-session propagation timers, full selection
    (the scale knobs all off). *)

val vod_paper : t
(** The configuration of the VoD service of [2]: no backups, 0.5 s
    propagation. *)

val validate : t -> (t, string) result

val pp : Format.formatter -> t -> unit

val takeover_to_string : takeover -> string
