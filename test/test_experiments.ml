(* Smoke and determinism tests for the experiment harness. *)

module Scenario = Haf_experiments.Scenario
module R = Haf_experiments.Runner.Make (Haf_services.Synthetic)
module Metrics = Haf_stats.Metrics
module Events = Haf_core.Events

let check = Alcotest.check

let small_scenario ?(seed = 3) () =
  {
    Scenario.default with
    seed;
    n_servers = 3;
    n_units = 1;
    replication = 3;
    n_clients = 2;
    session_duration = 40.;
    request_interval = 2.;
    duration = 30.;
  }

let test_runner_basic () =
  let tl, w = R.run_scenario (small_scenario ()) in
  let sids = Metrics.session_ids tl in
  check Alcotest.int "two sessions" 2 (List.length sids);
  List.iter
    (fun sid ->
      check Alcotest.bool
        (Printf.sprintf "%s streams" sid)
        true
        (List.length (Metrics.responses_received tl ~sid) > 20))
    sids;
  check Alcotest.int "all servers alive" 3 (List.length (R.live_servers w))

let test_runner_deterministic () =
  let run () =
    let tl, _ = R.run_scenario (small_scenario ()) in
    ( List.length tl,
      List.map (fun sid -> List.length (Metrics.responses_received tl ~sid))
        (Metrics.session_ids tl) )
  in
  check
    (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.int))
    "same seed, same timeline" (run ()) (run ())

let test_runner_seed_changes_run () =
  (* Different seeds draw different jitters: response arrival instants
     cannot coincide. *)
  let arrivals seed =
    let tl, _ = R.run_scenario (small_scenario ~seed ()) in
    match Metrics.session_ids tl with
    | sid :: _ -> List.map (fun (at, _, _) -> at) (Metrics.responses_received tl ~sid)
    | [] -> []
  in
  check Alcotest.bool "different seeds differ" true (arrivals 3 <> arrivals 4)

let test_unit_placement () =
  let sc = { Scenario.default with n_servers = 5; replication = 3 } in
  check (Alcotest.list Alcotest.int) "unit 0" [ 0; 1; 2 ] (Scenario.servers_for_unit sc 0);
  check (Alcotest.list Alcotest.int) "unit 3 wraps" [ 3; 4; 0 ] (Scenario.servers_for_unit sc 3);
  let sc1 = { sc with replication = 9 } in
  check Alcotest.int "replication capped at cluster" 5
    (List.length (Scenario.servers_for_unit sc1 0))

let test_crash_and_restart_emit_events () =
  let tl, _ =
    R.run_scenario (small_scenario ()) ~prepare:(fun w ->
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:10. (fun () ->
               R.crash_server w 2));
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:18. (fun () ->
               R.restart_server w 2)))
  in
  let crashes =
    List.filter (fun (_, e) -> match e with Events.Server_crashed _ -> true | _ -> false) tl
  in
  let restarts =
    List.filter
      (fun (_, e) -> match e with Events.Server_restarted _ -> true | _ -> false)
      tl
  in
  check Alcotest.int "one crash event" 1 (List.length crashes);
  check Alcotest.int "one restart event" 1 (List.length restarts)

let test_poisson_crashes_eventually_fire () =
  let tl, _ =
    R.run_scenario (small_scenario ()) ~prepare:(fun w ->
        R.schedule_poisson_crashes w ~lambda:0.5 ~repair:3. ~start:2. ())
  in
  check Alcotest.bool "several crashes at lambda=0.5" true
    (Metrics.session_ids tl <> []
    && List.length
         (List.filter
            (fun (_, e) -> match e with Events.Server_crashed _ -> true | _ -> false)
            tl)
       > 2)

let test_group_wipes_scoped () =
  (* Wipes with kill_prob 1.0 must only ever crash servers that were
     serving the targeted session, never the whole cluster at once (at
     most primary + backups per event). *)
  let sc = { (small_scenario ()) with n_servers = 5 } in
  let tl, _ =
    R.run_scenario sc ~prepare:(fun w ->
        R.schedule_group_wipes w ~every:8. ~kill_prob:1.0 ~repair:2. ())
  in
  (* Group size = 1 primary + 1 backup (default policy): each wipe kills
     at most 2 servers. *)
  let crash_times = Hashtbl.create 8 in
  List.iter
    (fun (at, e) ->
      match e with
      | Events.Server_crashed _ ->
          Hashtbl.replace crash_times at (1 + Option.value (Hashtbl.find_opt crash_times at) ~default:0)
      | _ -> ())
    tl;
  Hashtbl.iter
    (fun at n ->
      if n > 2 then Alcotest.failf "wipe at %.1f killed %d servers" at n)
    crash_times

let test_registry_complete () =
  let module Reg = Haf_experiments.Registry in
  (* e1..e16 plus e18; e17 is the real-UDP cluster harness
     (bin/haf_cluster), which cannot run inside the registry. *)
  check Alcotest.int "seventeen experiments" 17 (List.length Reg.all);
  check
    (Alcotest.list Alcotest.string)
    "ids in order, e17 external"
    (List.init 16 (fun i -> Printf.sprintf "e%d" (i + 1)) @ [ "e18" ])
    (List.map (fun e -> e.Reg.id) Reg.all);
  check Alcotest.bool "find works" true (Reg.find "e3" <> None);
  check Alcotest.bool "find rejects unknown" true (Reg.find "e99" = None)

(* Run the cheapest analytical experiment end to end as a smoke test;
   the simulation-heavy ones are exercised by `dune exec bench/main.exe`. *)
let test_e9_runs () =
  let module Reg = Haf_experiments.Registry in
  match Reg.find "e9" with
  | Some e ->
      let tables = e.Reg.run ~quick:true in
      check Alcotest.int "one table" 1 (List.length tables);
      let rendered = Haf_stats.Table.render (List.hd tables) in
      check Alcotest.bool "has rows" true (String.length rendered > 200)
  | None -> Alcotest.fail "e9 missing"

(* All four fast-path knobs at once — sharded session groups, batched
   context propagation, incremental placement, batched sequencing —
   plus a mid-run primary crash.  Each knob is equivalence-tested in
   isolation elsewhere; this is the combined end-to-end check that the
   monitored protocol still grants, streams, and takes over cleanly
   with everything switched on. *)
let test_fast_path_knobs_combined () =
  let sc =
    {
      (small_scenario ~seed:11 ()) with
      Scenario.policy =
        {
          Haf_core.Policy.default with
          session_shards = 4;
          batch_propagation = true;
          incremental_assign = true;
        };
      gcs_config = { Haf_gcs.Config.default with seq_batch_window = 0.05 };
    }
  in
  let tl, w =
    R.run_scenario sc ~prepare:(fun w ->
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:12. (fun () ->
               R.crash_server w 0)))
  in
  (match R.violations w with
  | [] -> ()
  | vs ->
      Alcotest.failf "monitor recorded %d violation(s), first: %s"
        (List.length vs)
        (Format.asprintf "%a" Haf_stats.Metrics.pp_violation (List.hd vs)));
  let sids = Metrics.session_ids tl in
  check Alcotest.int "two sessions granted" 2 (List.length sids);
  List.iter
    (fun sid ->
      check Alcotest.bool
        (Printf.sprintf "%s streams under knobs" sid)
        true
        (List.length (Metrics.responses_received tl ~sid) > 20))
    sids;
  let takeovers =
    List.filter (fun (_, e) -> match e with Events.Takeover _ -> true | _ -> false) tl
  in
  check Alcotest.bool "crash triggered at least one takeover" true
    (List.length takeovers >= 1)

(* Session-group membership is one refcounted path whatever the group
   map: per-session groups ([session_shards = 0]) and shard groups
   ([session_shards = 4]).  The run starts sessions, crashes a primary
   (its backup is promoted), restarts it (a join, so the unit
   rebalances), and ends every session before the horizon.  Throughout,
   each live server must be in exactly the session groups of the
   sessions it holds a role in; at the end only the service group and
   the content groups remain.  A Backup->Primary promotion that took a
   second reference would keep its group joined after the session
   ended, so the end state also pins the refcount. *)
let test_session_group_membership shards () =
  let sc =
    {
      (small_scenario ~seed:5 ()) with
      Scenario.n_clients = 4;
      session_duration = 30.;
      duration = 60.;
      policy = { Haf_core.Policy.default with session_shards = shards };
    }
  in
  let svc_and_content =
    List.sort String.compare
      (Haf_core.Naming.service_group
      :: List.map
           (fun k -> Haf_core.Naming.content_group (Scenario.unit_name k))
           (List.init sc.Scenario.n_units Fun.id))
  in
  let mismatches = ref [] in
  let crashed = ref (-1) in
  let check_membership w =
    List.iter
      (fun (p, srv) ->
        let joined =
          List.filter
            (fun g -> not (List.mem g svc_and_content))
            (Haf_gcs.Daemon.groups (Haf_gcs.Gcs.daemon w.R.gcs p))
        in
        let held =
          List.map
            (fun (sid, _) -> Haf_core.Naming.group_of_session ~shards sid)
            (R.Fw.Server.sessions_served srv)
          |> List.sort_uniq String.compare
        in
        if joined <> held then
          mismatches :=
            Printf.sprintf "t=%.2f s%d joined [%s] holds [%s]"
              (Haf_sim.Engine.now w.R.engine) p (String.concat "," joined)
              (String.concat "," held)
            :: !mismatches)
      (R.live_servers w)
  in
  let tl, w =
    R.run_scenario sc ~prepare:(fun w ->
        let at time f =
          ignore (Haf_sim.Engine.schedule_at w.R.engine ~time f)
        in
        at 12. (fun () ->
            match List.concat_map R.Fw.Client.session_ids w.R.clients with
            | sid :: _ -> (
                match R.current_primary w sid with
                | Some p ->
                    crashed := p;
                    R.crash_server w p
                | None -> ())
            | [] -> ());
        at 18. (fun () -> if !crashed >= 0 then R.restart_server w !crashed);
        List.iter
          (fun k -> at (0.5 *. float_of_int k) (fun () -> check_membership w))
          (List.init 120 Fun.id))
  in
  (match R.violations w with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "monitor violation: %s"
        (Format.asprintf "%a" Haf_stats.Metrics.pp_violation v));
  check Alcotest.bool "a primary was crashed" true (!crashed >= 0);
  let takeovers kind =
    List.filter_map
      (fun (_, e) ->
        match e with
        | Events.Takeover { server; kind = k; had_live_context; _ }
          when k = kind ->
            Some (server, had_live_context)
        | _ -> None)
      tl
  in
  check Alcotest.bool "a backup was promoted on the crash" true
    (List.exists
       (fun (server, live) -> live && server <> !crashed)
       (takeovers Events.Crash));
  check Alcotest.bool "the restart rebalanced sessions" true
    (takeovers Events.Rebalance <> []);
  check Alcotest.int "every session ended" 4
    (List.length
       (List.filter
          (fun (_, e) ->
            match e with Events.Session_ended _ -> true | _ -> false)
          tl));
  check (Alcotest.list Alcotest.string) "joined groups track held roles" []
    (List.rev !mismatches);
  List.iter
    (fun (p, _) ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "s%d ends in the service and content groups only" p)
        svc_and_content
        (Haf_gcs.Daemon.groups (Haf_gcs.Gcs.daemon w.R.gcs p)))
    (R.live_servers w)

let suite =
  [
    ( "experiments.runner",
      [
        Alcotest.test_case "basic run" `Quick test_runner_basic;
        Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_runner_seed_changes_run;
        Alcotest.test_case "unit placement" `Quick test_unit_placement;
        Alcotest.test_case "fault events emitted" `Quick test_crash_and_restart_emit_events;
        Alcotest.test_case "poisson crashes" `Quick test_poisson_crashes_eventually_fire;
        Alcotest.test_case "group wipes scoped" `Quick test_group_wipes_scoped;
        Alcotest.test_case "fast-path knobs combined" `Quick
          test_fast_path_knobs_combined;
        Alcotest.test_case "session groups, per-session" `Quick
          (test_session_group_membership 0);
        Alcotest.test_case "session groups, 4 shards" `Quick
          (test_session_group_membership 4);
      ] );
    ( "experiments.registry",
      [
        Alcotest.test_case "complete" `Quick test_registry_complete;
        Alcotest.test_case "e9 runs" `Quick test_e9_runs;
      ] );
  ]
