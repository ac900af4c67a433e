(** The benchmark's three workloads.  Each is a scenario shape plus a
    client plan and a fault plan; the seed is supplied per run, so the
    program under test only ever receives the generated inputs. *)

type name = Scale_10k | Updates | Failover

type faults =
  | No_faults
  | Crash_once of { server : int; at : float }
      (** One server crash at a fixed simulated time. *)
  | Primary_kills of { every : float; repair : float; start : float }
      (** {!Haf_experiments.Runner.Make.schedule_primary_kills}: crash
          the primary of a random live session every [every] s, each
          victim back after an exponential repair of mean [repair] s. *)

type t = {
  name : name;
  scenario : Haf_experiments.Scenario.t;
      (** Deployment, policy and horizon; [seed] is replaced per run. *)
  slow_ticks : bool;
      (** Serve a response every 2 s instead of the synthetic service's
          0.2 s (the E12 bench's response rate). *)
  clients : int;
  sessions : int;  (** Concurrent sessions, dealt evenly to the clients. *)
  ramp : float;
      (** Seconds after warm-up over which each client admits its
          sessions, one per timer fire. *)
  faults : faults;
  nominal_cpu_s : float;
      (** CPU seconds one run of the scenario takes on a 2-core x86-64
          machine; sizes how many seeds fill a measurement window. *)
}

val all : t list

val to_string : name -> string

val of_string : string -> t option

val why : name -> string
(** One line: which layers the workload stresses, and why. *)

val iterations : t -> seconds:float -> int
(** Scenario runs that fill a [seconds] window: the rounded ratio to
    {!nominal_cpu_s}, at least 1.  A function of the arguments only, so
    one seed and window always give the same inputs. *)

val iteration_seed : seed:int -> int -> int
(** Scenario seed of the [i]-th run of a benchmark seed. *)
