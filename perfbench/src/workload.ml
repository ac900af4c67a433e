module Scenario = Haf_experiments.Scenario
module Policy = Haf_core.Policy

type name = Scale_10k | Updates | Failover

type faults =
  | No_faults
  | Crash_once of { server : int; at : float }
  | Primary_kills of { every : float; repair : float; start : float }

type t = {
  name : name;
  scenario : Scenario.t;
  slow_ticks : bool;
  clients : int;
  sessions : int;
  ramp : float;
  faults : faults;
  nominal_cpu_s : float;
}

let warmup = 3.

(* The E12 engine bench shape: every scaling knob on, one crash after
   the ramp settles, coarse monitor probes. *)
let scale_10k =
  {
    name = Scale_10k;
    scenario =
      {
        Scenario.default with
        n_servers = 5;
        n_units = 2;
        replication = 4;
        n_clients = 20;
        sessions_per_client = 0;
        session_duration = 10_000.;
        request_interval = 30.;
        warmup;
        duration = 30.;
        monitor_interval = 2.5;
        retain_events = false;
        retain_responses = false;
        policy =
          {
            Policy.default with
            n_backups = 1;
            session_shards = 64;
            batch_propagation = true;
            incremental_assign = true;
            propagation_period = 5.;
            rebalance_on_join = false;
          };
        gcs_config = { Haf_gcs.Config.default with seq_batch_window = 0.05 };
      };
    slow_ticks = true;
    clients = 20;
    sessions = 10_000;
    ramp = 10.;
    faults = Crash_once { server = 1; at = warmup +. 10. +. 5. };
    nominal_cpu_s = 10.5;
  }

(* The paper-literal policy (every knob off), write-heavy, no faults. *)
let updates =
  {
    name = Updates;
    scenario =
      {
        Scenario.default with
        n_servers = 5;
        n_units = 2;
        replication = 3;
        n_clients = 10;
        sessions_per_client = 0;
        session_duration = 10_000.;
        request_interval = 0.1;
        warmup;
        duration = warmup +. 40.;
        retain_events = false;
        retain_responses = false;
        policy = Policy.default;
      };
    slow_ticks = false;
    clients = 10;
    sessions = 100;
    ramp = 1.;
    faults = No_faults;
    nominal_cpu_s = 8.8;
  }

(* The paper's fault path: targeted primary kills with repair, stable
   storage on every server. *)
let failover =
  {
    name = Failover;
    scenario =
      {
        Scenario.default with
        n_servers = 5;
        n_units = 2;
        replication = 3;
        n_clients = 10;
        sessions_per_client = 0;
        session_duration = 10_000.;
        request_interval = 1.;
        warmup;
        duration = warmup +. 120.;
        retain_events = false;
        retain_responses = false;
        policy = Policy.default;
        store = Some Haf_store.Store.default_config;
      };
    slow_ticks = false;
    clients = 10;
    sessions = 100;
    ramp = 1.;
    faults = Primary_kills { every = 4.; repair = 3.; start = warmup +. 5. };
    nominal_cpu_s = 9.5;
  }

let all = [ scale_10k; updates; failover ]

let to_string = function
  | Scale_10k -> "scale-10k"
  | Updates -> "updates"
  | Failover -> "failover"

let of_string s = List.find_opt (fun w -> String.equal (to_string w.name) s) all

let why = function
  | Scale_10k ->
      "many sessions, few updates: engine timers, admission, heartbeat and \
       group sweeps, monitor cost per event and memory per session"
  | Updates ->
      "write-heavy with every knob off: sequenced session-group multicast, \
       three nested encodings per update, apply and propagate"
  | Failover ->
      "primary kills with repair and stable storage: failure detection, \
       view change, state exchange, store recovery and takeover"

let iterations w ~seconds =
  Int.max 1 (int_of_float (Float.round (seconds /. w.nominal_cpu_s)))

let iteration_seed ~seed i = (seed * 7919) + i
