(** Exactly-once sets of message uids.

    A daemon keeps two per group: the uids it has logged and the uids
    it has delivered.  For each source [(origin, incarnation)] the set
    holds the serials seen, as {!Haf_sim.Seqset} ranges.  Serials are
    minted per group, so a source's serials in a group are contiguous
    and arrive almost always in order: the set's size grows with the
    gaps in them, not with the traffic, and the in-order case extends
    the top range in place, without allocating. *)

type t

val create : unit -> t

val mem : t -> Wire.uid -> bool

val add : t -> Wire.uid -> unit

val ranges : t -> ((Wire.proc * int) * Haf_sim.Seqset.t) list
(** Per source [(origin, incarnation)], ascending: the serials held,
    in canonical form. *)
