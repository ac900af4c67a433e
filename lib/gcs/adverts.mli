(** The group adverts a daemon last heard from each peer, indexed by
    group.

    A heartbeat carries one advert per group its sender is in; a daemon
    keeps the latest heartbeat's adverts per peer.  It asks two things
    of them on every tick, once per group it is in: what a given peer
    advertises for the group, and which peers advertise it at all.
    Indexing each peer's adverts by group makes the first one lookup
    and the second one lookup per peer. *)

type proc = int

type t

val empty : t

val record : proc -> Wire.advert list -> t -> t
(** Replace the peer's adverts with the list.  If the list names a
    group twice, the first advert for it is kept. *)

val find : proc -> string -> t -> Wire.advert option
(** The peer's advert for the group, if its last adverts had one. *)

val advertisers : string -> t -> proc list
(** The peers whose last adverts name the group, ascending. *)

val forget : proc -> string -> t -> t
(** Drop the peer's advert for the group: it said it left. *)
