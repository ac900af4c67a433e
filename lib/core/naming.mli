(** Group naming conventions.

    The paper's three group scales map to deterministic names, so that
    every server — and the deterministic selection function — computes the
    same group name with no extra coordination ("the group name is
    computed deterministically by each of the servers"). *)

val service_group : string
(** The group of all servers; the clients' a-priori-known contact point. *)

val content_group : string -> string
(** [content_group unit_id]: the group of servers replicating one content
    unit. *)

val session_group : string -> string
(** [session_group session_id]: primary + backups of one live session. *)

val shard_group : int -> string
(** [shard_group k]: the k-th session-shard group. *)

val session_shard_group : shards:int -> string -> string
(** [session_shard_group ~shards session_id] is [shard_group k] for
    [k] the FNV-1a hash of [session_id] mod [shards].  The hash is
    written out by hand (never the polymorphic [Hashtbl.hash]), so every
    process computes the same [k] for the same id.  Requires
    [shards > 0]. *)

val group_of_session : shards:int -> string -> string
(** The group that carries [session_id]'s client requests and holds its
    primary and backups — the one session-to-group map that client
    routing, server receive and membership all use.  [shards] is
    {!Policy.t.session_shards}: with [0] every session has its own
    {!session_group}; otherwise sessions share [shards] fixed
    {!session_shard_group}s, which bounds the number of GCS groups.
    Either way the map is pure in the session id, so every server and
    every client computes the same group with no coordination — the
    property the paper demands of the per-session names. *)

val is_service_group : string -> bool

val content_unit_of : string -> string option
(** Inverse of {!content_group}. *)

val session_of : string -> string option
(** Inverse of {!session_group}. *)
