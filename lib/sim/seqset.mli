(** Exact sets of non-negative integers, stored as ranges.

    Two kinds of set use it: a session's applied request seqs, and the
    uid serials a GCS group has seen from one source.  Each is almost
    always one contiguous run with at most a few holes (requests a
    server never saw, messages never sequenced).  As ranges, its size,
    its wire and disk encodings and the cost of every operation below
    grow with the number of holes, not with the number of members the
    set has ever taken in. *)

type t = (int * int) list
(** Inclusive ranges [(lo, hi)], ascending, disjoint and non-adjacent,
    with [0 <= lo <= hi]: the one canonical encoding of a set, so two
    equal sets are structurally equal.  [[]] is the empty set.  The
    type is concrete so that records holding a set can be built with
    [[]]; {!check} convicts a value that breaks the form. *)

val empty : t

val mem : int -> t -> bool

val add : int -> t -> t

val union : t -> t -> t

val diff : t -> t -> t
(** [diff a b]: the members of [a] that are not in [b]. *)

val elements : t -> int list
(** Every member, ascending.  Linear in the cardinal: for printing and
    tests, not for protocol paths. *)

val check : t -> (unit, string) result
(** [Ok ()] iff the value is canonical; otherwise names the first
    defect: a negative seq, an inverted range, or a range out of order
    with, overlapping or adjacent to its predecessor. *)
