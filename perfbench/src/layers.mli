(** Isolated layer timings: each drives one layer's public functions on
    inputs shaped like a workload's traced run, with a CPU clock the
    caller injects.  Every timing reports CPU ns and minor-heap words
    per operation, as the median of 5 repetitions. *)

type timing = {
  ns : float;  (** CPU nanoseconds per operation (median repetition). *)
  words : float;  (** Minor-heap words per operation (median repetition). *)
  samples : int;  (** Operations timed, over all repetitions. *)
}

val codec :
  clock:(unit -> float) ->
  encode:('a -> string) ->
  decode:(string -> 'b) ->
  'a ->
  timing * timing * int
(** Encode and decode timings of one message, and its encoded size. *)

val schedule_run :
  clock:(unit -> float) -> seed:int -> mix:(float * float * float) list -> depth:int -> timing
(** [Engine.schedule] of [depth] one-shot timers then [Engine.run]
    draining them; delays drawn from [mix], a list of
    [(weight, lo, hi)] uniform ranges. *)

val transport_send_deliver : clock:(unit -> float) -> bytes:int -> timing
(** [Transport.send] to delivery over a lossless LAN simulated link. *)

val wire_frames :
  group:string -> payload:string -> batch:int -> (string * Haf_gcs.Wire.msg) list
(** [Wire.Data] carrying [payload] and [Wire.Data_batch] carrying [batch]
    such entries, by kind. *)

val gcs_multicast :
  clock:(unit -> float) ->
  gcs_config:Haf_gcs.Config.t ->
  size:int ->
  payload:string ->
  timing
(** One totally ordered [Gcs.multicast] until delivery at every member of
    a settled group of [size] servers. *)

val monitor_observe :
  clock:(unit -> float) ->
  n_servers:int ->
  n_nodes:int ->
  policy:Haf_core.Policy.t ->
  gcs_config:Haf_gcs.Config.t ->
  (float * Haf_core.Events.t) array ->
  timing
(** [Events.emit] of a recorded event prefix into a sink watched by a
    fresh {!Haf_monitor.Monitor.t}: the monitor's cost per event. *)

val unit_db_add : clock:(unit -> float) -> unit_id:string -> string array -> timing
(** [Unit_db.add_session] of every id into an empty database. *)

val unit_db_merge : clock:(unit -> float) -> unit_id:string -> 'ctx Haf_core.Unit_db.record list -> timing
(** [Unit_db.merge_records] of an exported record list into an empty
    database, per record. *)

val selection_assign :
  clock:(unit -> float) ->
  n_backups:int ->
  members:int list ->
  Haf_core.Selection.prev list ->
  timing
(** [Selection.assign ~rebalance:true] over a unit's sessions, per
    session. *)

val store_log_sync : clock:(unit -> float) -> record:string -> wal_length:int -> timing
(** [Store.log] of [wal_length] copies of [record] into a fresh store,
    group-committed by [Store.sync] every 16 records, until durable; per
    record. *)
