(** Growable float sample buffers with exact nearest-rank percentiles.

    Every simulated-time metric of the benchmark is a percentile of one
    of these; the values are exact for a given seed, so the traced and
    untraced runs of one seed must agree on them bit for bit. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val append : into:t -> t -> unit
(** Pool [t]'s samples into [into]. *)

val percentile : t -> float -> float option
(** [percentile t p] (0 < p < 1): the nearest-rank value, or [None] when
    fewer than 10 samples lie beyond it. *)

val quantile : t -> float -> float option
(** [quantile t p] (0 <= p <= 1): the nearest-rank value without that
    rule ([None] only when empty); [0.] is the minimum, [1.] the
    maximum — for shapes and timings, not for reported latencies. *)

val median : t -> float option
(** [quantile t 0.5]. *)

val fingerprint : t -> string
(** A digest of every sample in order: equal fingerprints mean the same
    samples bit for bit. *)
