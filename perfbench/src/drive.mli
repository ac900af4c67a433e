(** One scenario run of a workload, untraced or traced, driven through
    {!Haf_experiments.Runner.Make} with the benchmark's own client plan,
    fault plan and event tap. *)

type counters = {
  events : int;  (** Engine events fired, warm-up included. *)
  violations : int;  (** Monitor violations. *)
  first_violations : string list;  (** The first three, rendered. *)
  monitor_events : int;  (** Events the monitor observed. *)
  datagrams : int;  (** Datagrams sent by every node. *)
  net_bytes : int;  (** Bytes sent by every node. *)
  transport : Haf_net.Transport.stats;
  view_changes : int;
  audits_failed : int;
  resets : int;
  fsyncs : int;  (** Summed over every server's store (0 without stores). *)
  bytes_logged : int;
  recoveries : int;
  wal_records : int;
}

type run = {
  seed : int;  (** The scenario seed. *)
  probe : Probe.t;
  counters : counters;
  cpu_s : float;  (** CPU seconds of the run phase (after warm-up). *)
  minor_words : float;  (** Minor-heap words allocated in the run phase. *)
  top_heap_words : int;
      (** [Gc.top_heap_words] after the run: the process's peak major
          heap so far. *)
  starts : Layers.timing option;
      (** Traced: CPU ns and words of the benchmark's own
          [Client.start_session] calls. *)
  profile : Haf_sim.Profile.entry list;  (** Traced: the run's profile slots. *)
  timings : (string * Layers.timing) list;
      (** Traced: isolated layer timings, named by metric prefix. *)
  sizes : (string * string * int) list;
      (** Shapes of the timed inputs: (name, unit, value), e.g. encoded
          sizes in bytes. *)
}

module Make (_ : Haf_core.Service_intf.SERVICE) : sig
  val setup_wall_s : wall:(unit -> float) -> Workload.t -> seed:int -> float
  (** Build a world (engine, fabric, servers, clients, monitor), install
      the client and fault plans, and run the warm-up up to the first
      session request: the wall seconds it took. *)

  val run : cpu:(unit -> float) -> traced:bool -> Workload.t -> seed:int -> run
  (** Set up and run one scenario to its horizon.  [traced] turns on the
      {!Haf_sim.Profile} slots, the pending-timer sampler, event
      recording and start-session timing; none of them schedules an
      event or feeds the simulation, so every exact count must equal the
      untraced run's.  A traced run then also times each layer in
      isolation on inputs taken from the run. *)
end
