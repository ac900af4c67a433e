(* Incremental monitor pump vs the reference scan.

   [Monitor.pump] replaces a per-pump population scan with dirty-set
   indices (a staleness deadline min-heap and a dual-primary watch
   set).  The claim in monitor.mli is strong: a monitor pumped by
   [Monitor.pump] and one pumped by [Monitor.reference_scan], the
   whole-population oracle, record {e identical} violation ledgers —
   same order, same timestamps, same details — on {e any} well-formed
   event stream.  This file holds that claim to account three ways:

   - a qcheck property drives two monitors (one per pump function)
     attached to the SAME events sink over random histories of grants,
     role churn, crashes, link faults, propagations (with occasional
     dropped acked seqs) and view notes, pumped at random times, and
     asserts the ledgers are equal element-wise;
   - a directed history provokes each pump-evaluated invariant
     (dual primary, staleness) plus the event-driven acked-loss check,
     so the property is known to range over non-empty ledgers;
   - scenario-level runs — one corruption-heavy chaos schedule, and a
     delay spike that provokes a real dual primary — each carry a
     second monitor on the run's sink, pumped by the reference scan at
     the run monitor's instants, and assert the two ledgers agree.

   Every Network crash/recover in the random driver is mirrored as a
   [Server_crashed]/[Server_restarted] event.  This mirrors the
   framework's contract (the fault injectors always emit both) and is
   load-bearing for the test: a silent [Network.crash] would leave the
   reference scan resetting the staleness clock every pump (no live
   primary) while the incremental heap still holds the old deadline — a
   timing skew of up to one staleness bound that no real run can
   produce. *)

module Events = Haf_core.Events
module Monitor = Haf_monitor.Monitor
module Stabilize = Haf_monitor.Stabilize
module Network = Haf_net.Network
module Engine = Haf_sim.Engine
module Metrics = Haf_stats.Metrics
module Chaos = Haf_chaos.Chaos
module Scenario = Haf_experiments.Scenario
module R = Haf_experiments.Runner.Make (Haf_services.Synthetic)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Random-history driver: one sink, two monitors                       *)

let n_servers = 4

let sids = [| "sa"; "sb"; "sc"; "sd"; "se"; "sf" |]

let unit_of i = Printf.sprintf "u%02d" (i mod 2)

type op =
  | Grant of int * int  (* session idx granted with this primary *)
  | Assume of int * int  (* server believes itself primary *)
  | Drop of int * int
  | End_session of int
  | Crash of int
  | Recover of int
  | Link of int * int * bool
  | Heal
  | Propagate of int * int * bool  (* session, emitter, drop acked history *)
  | Propagate_set of int * int * Haf_sim.Seqset.t  (* session, emitter, applied *)
  | View_note of int * int  (* server, session idx (-> its content unit) *)
  | Pump

let op_to_string = function
  | Grant (i, s) -> Printf.sprintf "grant %s s%d" sids.(i) s
  | Assume (i, s) -> Printf.sprintf "assume %s s%d" sids.(i) s
  | Drop (i, s) -> Printf.sprintf "drop %s s%d" sids.(i) s
  | End_session i -> Printf.sprintf "end %s" sids.(i)
  | Crash s -> Printf.sprintf "crash s%d" s
  | Recover s -> Printf.sprintf "recover s%d" s
  | Link (a, b, up) -> Printf.sprintf "link s%d s%d %b" a b up
  | Heal -> "heal"
  | Propagate (i, s, drop) -> Printf.sprintf "propagate %s s%d drop:%b" sids.(i) s drop
  | Propagate_set (i, s, applied) ->
      Printf.sprintf "propagate %s s%d applied:%s" sids.(i) s
        (String.concat ","
           (List.map (fun (lo, hi) -> Printf.sprintf "%d..%d" lo hi) applied))
  | View_note (s, i) -> Printf.sprintf "view s%d %s" s (unit_of i)
  | Pump -> "pump"

(* Tight bounds so violations actually occur inside short histories:
   the equivalence claim is only interesting on non-empty ledgers. *)
let test_config =
  {
    Monitor.dual_primary_grace = 0.75;
    staleness_bound = 3.0;
    ack_confirm_delay = 0.4;
  }

let viol_eq (a : Metrics.violation) (b : Metrics.violation) =
  a.Metrics.v_time = b.Metrics.v_time
  && a.Metrics.v_invariant = b.Metrics.v_invariant
  && a.Metrics.v_session = b.Metrics.v_session
  && a.Metrics.v_detail = b.Metrics.v_detail

let ledgers_eq va vb =
  List.length va = List.length vb && List.for_all2 viol_eq va vb

(* Replay one history into two monitors sharing the sink and the
   network, one pumped by the reference scan and one by [Monitor.pump];
   return both ledgers. *)
let replay steps =
  let engine = Engine.create ~seed:1 () in
  let net = Network.create engine Network.default_config in
  let servers = List.init n_servers (fun _ -> Network.add_node net) in
  let node = Array.of_list servers in
  let sink = Events.make_sink ~retain:false () in
  let mk () =
    Monitor.create ~config:test_config ~network:net ~servers
      ~policy:Haf_core.Policy.default ~gcs:Haf_gcs.Config.default ~events:sink
      ()
  in
  let m_ref = mk () in
  let m_incr = mk () in
  let pump_both ~now =
    Monitor.reference_scan m_ref ~now;
    Monitor.pump m_incr ~now
  in
  let seq = Array.make (Array.length sids) 0 in
  let now = ref 0.0 in
  let emit ev = Events.emit sink ~now:!now ev in
  List.iter
    (fun (dt, op) ->
      now := !now +. dt;
      match op with
      (* Role beliefs are only ever asserted by live servers
         ([Role_assumed] is emitted by the server itself), so the
         generator never targets a crashed one — the well-formedness
         half of the monitor's stream contract.  Without it a belief in
         an already-dead primary can flip back into a checkable state
         through a bare [Network.recover], with no event for the
         incremental indices to see. *)
      | Grant (i, srv) ->
          if Network.alive net node.(srv) then begin
            emit
              (Events.Session_requested
                 { client = 0; session_id = sids.(i); unit_id = unit_of i });
            emit
              (Events.Session_granted
                 { client = 0; session_id = sids.(i); primary = srv });
            emit
              (Events.Role_assumed
                 { server = srv; session_id = sids.(i); role = Events.Primary })
          end
      | Assume (i, srv) ->
          if Network.alive net node.(srv) then
            emit
              (Events.Role_assumed
                 { server = srv; session_id = sids.(i); role = Events.Primary })
      | Drop (i, srv) ->
          emit
            (Events.Role_dropped
               { server = srv; session_id = sids.(i); role = Events.Primary })
      | End_session i -> emit (Events.Session_ended { session_id = sids.(i) })
      | Crash s ->
          if Network.alive net node.(s) then begin
            Network.crash net node.(s);
            emit (Events.Server_crashed { server = node.(s) })
          end
      | Recover s ->
          if not (Network.alive net node.(s)) then begin
            Network.recover net node.(s);
            emit (Events.Server_restarted { server = node.(s) })
          end
      | Link (a, b, up) ->
          if a <> b then Network.set_link_sym net node.(a) node.(b) up
      | Heal -> Network.heal_links net
      | Propagate (i, srv, drop) ->
          let k = seq.(i) + 1 in
          seq.(i) <- k;
          let applied = if drop then [ (k, k) ] else [ (1, k) ] in
          emit
            (Events.Propagated
               { server = srv; session_id = sids.(i); req_seq = k; applied })
      | Propagate_set (i, srv, applied) ->
          let k = List.fold_left (fun acc (_, hi) -> Int.max acc hi) 0 applied in
          seq.(i) <- Int.max seq.(i) k;
          emit
            (Events.Propagated
               { server = srv; session_id = sids.(i); req_seq = k; applied })
      | View_note (srv, i) ->
          let members =
            List.filter (fun s -> Network.alive net s) servers
          in
          emit
            (Events.View_noted
               {
                 server = srv;
                 group = Haf_core.Naming.content_group (unit_of i);
                 members;
               })
      | Pump -> pump_both ~now:!now)
    steps;
  (* Flush: pump past the staleness bound and the dual grace so every
     armed deadline and open episode gets its verdict in both monitors. *)
  pump_both ~now:!now;
  pump_both ~now:(!now +. test_config.Monitor.staleness_bound +. 0.1);
  pump_both ~now:(!now +. (2. *. test_config.Monitor.staleness_bound) +. 0.2);
  ( Monitor.violations m_ref,
    Monitor.violations m_incr,
    Monitor.events_seen m_ref,
    Monitor.events_seen m_incr )

(* ------------------------------------------------------------------ *)
(* qcheck: random histories                                            *)

let op_gen =
  let open QCheck.Gen in
  let si = int_range 0 (Array.length sids - 1) in
  let sv = int_range 0 (n_servers - 1) in
  frequency
    [
      (3, map2 (fun i s -> Grant (i, s)) si sv);
      (3, map2 (fun i s -> Assume (i, s)) si sv);
      (2, map2 (fun i s -> Drop (i, s)) si sv);
      (1, map (fun i -> End_session i) si);
      (2, map (fun s -> Crash s) sv);
      (2, map (fun s -> Recover s) sv);
      (2, map3 (fun a b up -> Link (a, b, up)) sv sv bool);
      (1, return Heal);
      (4, map3 (fun i s d -> Propagate (i, s, d)) si sv bool);
      (2, map2 (fun s i -> View_note (s, i)) sv si);
      (5, return Pump);
    ]

let step_gen =
  QCheck.Gen.(
    pair (map (fun k -> 0.05 +. (0.01 *. float_of_int k)) (int_range 0 115)) op_gen)

let steps_arb =
  (* The printer replays the failing history and appends both ledgers:
     a divergence report arrives pre-diffed. *)
  let pp_ledger tag vs =
    Printf.sprintf "%s (%d):\n%s" tag (List.length vs)
      (String.concat "\n"
         (List.map
            (fun v ->
              Printf.sprintf "  %.3f %s %s %s" v.Metrics.v_time
                (Metrics.invariant_to_string v.Metrics.v_invariant)
                (Option.value v.Metrics.v_session ~default:"-")
                v.Metrics.v_detail)
            vs))
  in
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun steps ->
      let vf, vi, _, _ = replay steps in
      String.concat "\n"
        (List.map (fun (dt, op) -> Printf.sprintf "+%.2f %s" dt (op_to_string op)) steps)
      ^ "\n" ^ pp_ledger "reference" vf ^ "\n" ^ pp_ledger "incr" vi)
    QCheck.Gen.(list_size (int_range 0 120) step_gen)

let prop_equivalence =
  QCheck.Test.make ~count:300
    ~name:"monitor: incremental ledger == reference-scan ledger, element-wise"
    steps_arb
    (fun steps ->
      let vf, vi, ef, ei = replay steps in
      ef = ei && ledgers_eq vf vi)

(* ------------------------------------------------------------------ *)
(* Directed histories: each invariant provoked, both monitors agree    *)

let invariants vs = List.sort_uniq compare (List.map (fun v -> v.Metrics.v_invariant) vs)

let test_directed_all_invariants () =
  let steps =
    [
      (* s0: dual primary in one healthy clique, past the 0.75s grace. *)
      (0.1, Grant (0, 0));
      (0.1, Assume (0, 1));
      (0.1, Pump);
      (1.0, Pump);
      (* s1: granted, then silent beyond the 3s staleness bound with its
         primary alive the whole time. *)
      (0.1, Grant (1, 2));
      (0.1, Propagate (1, 2, false));
      (3.5, Pump);
      (* s2: sole primary's later propagation drops acked seqs 1-2 after
         the 0.4s confirmation window passed with no view change. *)
      (0.1, Grant (2, 3));
      (0.1, Propagate (2, 3, false));
      (0.2, Propagate (2, 3, false));
      (0.6, Propagate (2, 3, true));
      (0.1, Pump);
    ]
  in
  let vf, vi, ef, ei = replay steps in
  check Alcotest.int "both monitors saw every event" ef ei;
  check Alcotest.bool "ledgers identical" true (ledgers_eq vf vi);
  check
    (Alcotest.list Alcotest.string)
    "all three invariant families provoked"
    [ "no-acked-loss"; "staleness-bound"; "unique-primary" ]
    (List.sort compare (List.map Metrics.invariant_to_string (invariants vf)))

let test_directed_hole_inside_range () =
  (* A later propagation that keeps both ends of the acked range but
     loses one seq from its middle: the range diff must find the hole,
     and the detail lists it exactly as the seq-list check did. *)
  let steps =
    [
      (0.1, Grant (0, 0));
      (0.1, Propagate_set (0, 0, [ (1, 10) ]));
      (0.5, Propagate_set (0, 0, [ (1, 4); (6, 10) ]));
    ]
  in
  let vf, vi, _, _ = replay steps in
  check Alcotest.bool "ledgers identical" true (ledgers_eq vf vi);
  (* The replay's closing pumps run past the staleness bound, so only
     the acked-loss verdicts are this test's business. *)
  match List.filter (fun v -> v.Metrics.v_invariant = Metrics.No_acked_loss) vf with
  | [ v ] ->
      check Alcotest.string "detail"
        "propagation by s0 dropped acked seqs [5] although [s0] survived since 0.200"
        v.Metrics.v_detail
  | vs -> Alcotest.failf "expected one acked-loss violation, got %d" (List.length vs)

let test_directed_crash_suspends_staleness () =
  (* The staleness clock must suspend while no primary is up, in both
     monitors: crash the sole primary right after a propagation, stay
     silent well past the bound, recover and re-assume — no violation. *)
  let steps =
    [
      (0.1, Grant (0, 0));
      (0.1, Propagate (0, 0, false));
      (0.2, Crash 0);
      (4.0, Pump);
      (0.1, Recover 0);
      (0.1, Assume (0, 0));
      (0.1, Propagate (0, 0, false));
      (0.1, Pump);
      (0.1, End_session 0);
    ]
  in
  let vf, vi, _, _ = replay steps in
  check Alcotest.bool "ledgers identical" true (ledgers_eq vf vi);
  check Alcotest.int "no violations: clock suspended during the outage" 0
    (List.length vf)

let test_directed_partitioned_duals_not_flagged () =
  (* Two primaries on opposite sides of a cut are the paper's intended
     WAN behaviour; both monitors must stay silent, then flag once the
     partition heals and the grace passes. *)
  let steps =
    [
      (0.1, Grant (0, 0));
      (0.1, Link (0, 1, false));
      (0.1, Link (0, 2, false));
      (0.1, Link (0, 3, false));
      (0.1, Assume (0, 1));
      (0.2, Pump);
      (1.5, Pump);
      (* partitioned: nothing flagged yet *)
      (0.1, Heal);
      (0.1, Pump);
      (1.0, Pump);
    ]
  in
  let vf, vi, _, _ = replay steps in
  check Alcotest.bool "ledgers identical" true (ledgers_eq vf vi);
  let dual =
    List.filter (fun v -> v.Metrics.v_invariant = Metrics.Unique_primary) vf
  in
  check Alcotest.int "flagged exactly once, after the heal" 1 (List.length dual);
  (* The heal lands at t>=2.2; any earlier flag means the partitioned
     phase was wrongly counted against the grace. *)
  List.iter
    (fun v ->
      check Alcotest.bool "flag postdates the heal" true (v.Metrics.v_time > 2.2))
    dual

(* ------------------------------------------------------------------ *)
(* Scenario-level: a corruption run against a reference-scan monitor   *)

let stabilize_scenario =
  {
    Scenario.default with
    seed = 11;
    n_servers = 3;
    n_units = 1;
    replication = 2;
    n_clients = 1;
    sessions_per_client = 1;
    session_duration = 50.;
    duration = 60.;
  }

(* Violations the runner reports into its monitor from outside
   ([Monitor.report]); a second monitor on the same sink never hears of
   them. *)
let runner_reported (v : Metrics.violation) =
  match v.Metrics.v_invariant with
  | Metrics.Assignment_agreement | Metrics.Convergence -> true
  | Metrics.Unique_primary | Metrics.No_acked_loss | Metrics.Staleness_bound ->
      false

(* Run [sc] with a second monitor subscribed to the run's sink and
   pumped by the reference scan at the run monitor's instants: its loop
   is the last thing [prepare] schedules, so at every tick it fires
   immediately before the runner's pump, with no event in between (the
   engine fires simultaneous events in insertion order).  It subscribes
   after set-up, so it misses only the servers' initial singleton
   views, which the merged views overwrite before the first session
   starts.  Returns the world and the run monitor's own ledger, which
   must equal the reference monitor's. *)
let run_against_reference sc ~prepare =
  let reference = ref None in
  let _, w =
    R.run_scenario sc ~prepare:(fun w ->
        prepare w;
        let m =
          Monitor.create ~network:(Haf_gcs.Gcs.network w.R.gcs)
            ~servers:(Haf_gcs.Gcs.servers w.R.gcs) ~policy:sc.Scenario.policy
            ~gcs:sc.Scenario.gcs_config ~events:w.R.events ()
        in
        reference := Some m;
        let interval = sc.Scenario.monitor_interval in
        let rec loop t =
          if t <= sc.Scenario.duration then
            ignore
              (Engine.schedule_at w.R.engine ~time:t (fun () ->
                   Monitor.reference_scan m ~now:(Engine.now w.R.engine);
                   loop (t +. interval)))
        in
        loop interval)
  in
  let m = Option.get !reference in
  Monitor.reference_scan m ~now:(Engine.now w.R.engine);
  let own = List.filter (fun v -> not (runner_reported v)) (R.violations w) in
  check Alcotest.bool "same violation ledger" true
    (ledgers_eq own (Monitor.violations m));
  (w, own)

let test_corruption_run_reference_ledger () =
  (* One corruption-heavy chaos schedule: corruption episodes, resets
     and Stabilize's legality probe all run while both monitors watch. *)
  let sc = stabilize_scenario in
  let sched =
    Chaos.generate ~seed:91 ~intensity:0.8 ~corruption:12
      ~horizon:sc.Scenario.duration ~n_servers:sc.Scenario.n_servers
      ~n_units:sc.Scenario.n_units ()
  in
  let w, _ =
    run_against_reference sc ~prepare:(fun w ->
        ignore (R.track_stabilization w ~window:20.);
        R.apply_schedule w sched)
  in
  let injected =
    match w.R.stabilizer with Some st -> Stabilize.injected st | None -> 0
  in
  check Alcotest.bool "the oracle actually saw corruption episodes" true
    (injected > 0);
  (* The corruption run records no violation of its own, so a second
     run makes the comparison range over a non-empty ledger: a failure
     detector tuned below an injected delay spike forges a failure,
     both sides elect a primary, and once the spike ends they share one
     clique component. *)
  let sc =
    {
      Scenario.default with
      seed = 7;
      n_servers = 2;
      n_units = 1;
      replication = 2;
      n_clients = 1;
      sessions_per_client = 1;
      session_duration = 70.;
      duration = 80.;
      gcs_config =
        {
          Haf_gcs.Config.default with
          heartbeat_interval = 0.05;
          suspect_timeout = 0.12;
          flush_timeout = 0.3;
        };
    }
  in
  let spike at extra =
    [
      (at, Chaos.Delay { src = 0; dst = 1; extra });
      (at, Chaos.Delay { src = 1; dst = 0; extra });
    ]
  in
  let sched = spike 20.0 0.6 @ spike 45.0 0. in
  let _, own =
    run_against_reference sc ~prepare:(fun w -> R.apply_schedule w sched)
  in
  check Alcotest.bool "the spike run flags a dual primary" true
    (List.exists (fun v -> v.Metrics.v_invariant = Metrics.Unique_primary) own)

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "monitor.incremental",
      Alcotest.
        [
          test_case
            "directed: all invariants, pump agrees with the reference scan"
            `Quick test_directed_all_invariants;
          test_case "directed: crash suspends the staleness clock" `Quick
            test_directed_crash_suspends_staleness;
          test_case "directed: partitioned duals exempt until heal" `Quick
            test_directed_partitioned_duals_not_flagged;
          test_case "directed: hole inside an acked range is a loss" `Quick
            test_directed_hole_inside_range;
          test_case
            "scenario: corruption run ledger equals a reference-scan monitor's"
            `Slow test_corruption_run_reference_ledger;
        ]
      @ qsuite [ prop_equivalence ] );
  ]
