module Engine = Haf_sim.Engine
module Profile = Haf_sim.Profile
module Events = Haf_core.Events
module Unit_db = Haf_core.Unit_db
module Scenario = Haf_experiments.Scenario

type counters = {
  events : int;
  violations : int;
  first_violations : string list;
  monitor_events : int;
  datagrams : int;
  net_bytes : int;
  transport : Haf_net.Transport.stats;
  view_changes : int;
  audits_failed : int;
  resets : int;
  fsyncs : int;
  bytes_logged : int;
  recoveries : int;
  wal_records : int;
}

type run = {
  seed : int;  (** The scenario seed. *)
  probe : Probe.t;
  counters : counters;
  cpu_s : float;
  minor_words : float;
  top_heap_words : int;
  starts : Layers.timing option;
  profile : Profile.entry list;
  timings : (string * Layers.timing) list;
  sizes : (string * string * int) list;
}

(* Events recorded from a traced run as the monitor timing's input. *)
let recorded_events = 20_000

module Make (S : Haf_core.Service_intf.SERVICE) = struct
  module R = Haf_experiments.Runner.Make (S)

  (* Admission ramp: each client owns one repeating starter that admits
     one session per fire and cancels itself at quota. *)
  let install_clients (wl : Workload.t) (w : R.world) ~start =
    let sc = w.R.scenario in
    List.iteri
      (fun ci client ->
        let quota =
          (wl.sessions / wl.clients) + if ci < wl.sessions mod wl.clients then 1 else 0
        in
        if quota > 0 then begin
          let started = ref 0 in
          let tmr = ref None in
          tmr :=
            Some
              (Engine.every w.R.engine
                 ~first:(sc.Scenario.warmup +. 0.01 +. (float_of_int ci *. 0.01))
                 ~period:(wl.ramp /. float_of_int quota)
                 (fun () ->
                   if !started < quota then begin
                     incr started;
                     let unit_id = Scenario.unit_name ((ci + !started) mod sc.Scenario.n_units) in
                     start (fun () ->
                         ignore
                           (R.Fw.Client.start_session client ~unit_id
                              ~duration:sc.Scenario.session_duration
                              ~request_interval:sc.Scenario.request_interval))
                   end
                   else Option.iter Engine.cancel !tmr))
        end)
      w.R.clients

  let install_faults (wl : Workload.t) (w : R.world) =
    match wl.faults with
    | No_faults -> ()
    | Crash_once { server; at } ->
        ignore (Engine.schedule_at w.R.engine ~time:at (fun () -> R.crash_server w server))
    | Primary_kills { every; repair; start } -> R.schedule_primary_kills w ~every ~repair ~start ()

  let build (wl : Workload.t) ~seed ~start =
    let sc = { wl.scenario with Scenario.seed } in
    let w = R.setup sc in
    let probe = Probe.create ~horizon:sc.Scenario.duration in
    Events.subscribe w.R.events (Probe.observe probe);
    install_clients wl w ~start;
    install_faults wl w;
    Engine.run ~until:sc.Scenario.warmup w.R.engine;
    (w, probe)

  let setup_wall_s ~wall wl ~seed =
    (* A fresh process builds its world on an empty heap: collect the
       previous world's garbage outside the timed interval. *)
    Gc.compact ();
    let t0 = wall () in
    let w, _ = build wl ~seed ~start:(fun f -> f ()) in
    let dt = wall () -. t0 in
    ignore (Sys.opaque_identity w);
    dt

  let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

  let counters (w : R.world) =
    let net = Haf_gcs.Gcs.network w.R.gcs in
    let datagrams = ref 0 and net_bytes = ref 0 in
    for p = 0 to Haf_net.Network.node_count net - 1 do
      let c = Haf_net.Network.counters net p in
      datagrams := !datagrams + c.Haf_net.Network.datagrams_sent;
      net_bytes := !net_bytes + c.Haf_net.Network.bytes_sent
    done;
    let stores =
      List.filter_map (fun (p, _) -> Option.map Haf_store.Store.stats (R.store_of w p)) w.R.servers
    in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 stores in
    {
      events = Engine.events_processed w.R.engine;
      violations = List.length (R.violations w);
      first_violations =
        List.map (Format.asprintf "%a" Haf_stats.Metrics.pp_violation) (take 3 (R.violations w));
      monitor_events = Haf_monitor.Monitor.events_seen w.R.monitor;
      datagrams = !datagrams;
      net_bytes = !net_bytes;
      transport = Haf_net.Transport.stats (Haf_gcs.Gcs.transport w.R.gcs);
      view_changes = Haf_gcs.Gcs.total_view_changes w.R.gcs;
      audits_failed = Haf_gcs.Gcs.total_audits_failed w.R.gcs;
      resets = Haf_gcs.Gcs.total_resets w.R.gcs;
      fsyncs = sum (fun s -> s.Haf_store.Store.s_fsyncs);
      bytes_logged = sum (fun s -> s.Haf_store.Store.s_bytes_logged);
      recoveries = sum (fun s -> s.Haf_store.Store.s_recoveries);
      wal_records = sum (fun s -> s.Haf_store.Store.s_wal_records);
    }

  let median_count s = int_of_float (Option.value (Samples.median s) ~default:1.)

  (* Isolated timings on inputs taken from this run: a live replica's
     database of unit 0, a real session id, the run's mean datagram
     size, delay mix, queue depth and event prefix. *)
  let layer_timings ~clock ~seed (w : R.world) probe (c : counters) =
    let sc = w.R.scenario in
    let unit_id = Scenario.unit_name 0 in
    let holder, records =
      match
        List.find_map
          (fun (p, srv) -> Option.map (fun db -> (p, db)) (R.Fw.Server.db srv unit_id))
          (R.live_servers w)
      with
      | Some (p, db) -> (p, Unit_db.export db)
      | None -> (0, [])
    in
    let session_id = Option.value (Probe.any_session probe) ~default:"s0" in
    let request =
      R.Fw.Request
        { session_id; seq = 1; body = S.gen_request (Haf_sim.Rng.create seed) ~seq:1 }
    in
    let payload = R.Fw.encode_group request in
    let snaps =
      List.filter_map
        (fun (r : S.context Unit_db.record) ->
          match (r.r_primary, r.r_propagated) with
          | Some p, Some snap when p = holder -> Some (r.r_session_id, snap)
          | _ -> None)
        records
    in
    let snap =
      match snaps with
      | (_, s) :: _ -> s
      | [] ->
          {
            Unit_db.snap_ctx = S.initial_context ~unit_id;
            snap_req_seq = 0;
            snap_applied = [];
            snap_at = 0.;
          }
    in
    let vid = Haf_gcs.View.Id.initial holder in
    let digests = List.map Unit_db.digest_of_record records in
    let digest_n =
      if Samples.count (Probe.digest_records probe) = 0 then List.length digests
      else median_count (Probe.digest_records probe)
    in
    let delta_n = Int.max 1 (median_count (Probe.delta_records probe)) in
    let fw_msgs =
      [
        ("request", request);
        ("propagate_batch", R.Fw.Propagate_batch { snaps });
        ("state_digest", R.Fw.State_digest { sender = holder; vid; digest = take digest_n digests });
        ("state_delta", R.Fw.State_delta { sender = holder; vid; records = take delta_n records });
      ]
    in
    let timings = ref [] and sizes = ref [] in
    let add name t = timings := (name, t) :: !timings in
    let codec prefix (enc, dec, bytes) =
      add (prefix ^ ".encode") enc;
      add (prefix ^ ".decode") dec;
      sizes := (prefix ^ ".bytes", "bytes", bytes) :: !sizes
    in
    List.iter
      (fun (kind, msg) ->
        codec ("fw." ^ kind)
          (Layers.codec ~clock ~encode:R.Fw.encode_group ~decode:R.Fw.decode_group msg))
      fw_msgs;
    let group =
      let shards = sc.Scenario.policy.Haf_core.Policy.session_shards in
      if shards > 0 then Haf_core.Naming.session_shard_group ~shards session_id
      else Haf_core.Naming.session_group session_id
    in
    List.iter
      (fun (kind, msg) ->
        codec ("wire." ^ kind)
          (Layers.codec ~clock ~encode:Haf_gcs.Wire.encode ~decode:Haf_gcs.Wire.decode msg))
      (Layers.wire_frames ~group ~payload ~batch:8);
    let gcs_config = sc.Scenario.gcs_config in
    List.iter
      (fun size ->
        add (Printf.sprintf "gcs.multicast%d" size)
          (Layers.gcs_multicast ~clock ~gcs_config ~size ~payload))
      [ 3; 5 ];
    add "transport.send_deliver"
      (Layers.transport_send_deliver ~clock ~bytes:(c.net_bytes / Int.max 1 c.datagrams));
    let ticks = Probe.session_seconds probe /. S.tick_period in
    let upd = float_of_int (Samples.count (Probe.updates probe)) in
    let deliveries = float_of_int c.datagrams in
    let hb = gcs_config.Haf_gcs.Config.heartbeat_interval in
    let rest = Float.max 0. (float_of_int c.events -. deliveries -. ticks -. upd) in
    let ri = sc.Scenario.request_interval in
    add "sim.schedule_run"
      (Layers.schedule_run ~clock ~seed
         ~mix:[ (deliveries, 0.0005, 0.001); (ticks, S.tick_period, S.tick_period); (upd, ri, ri); (rest, hb, hb) ]
         ~depth:(Int.min 100_000 (Int.max 1_000 (Probe.pending_peak probe))));
    add "monitor.observe"
      (Layers.monitor_observe ~clock ~n_servers:sc.Scenario.n_servers
         ~n_nodes:(sc.Scenario.n_servers + sc.Scenario.n_clients)
         ~policy:sc.Scenario.policy ~gcs_config (Probe.recorded probe));
    add "unit_db.add"
      (Layers.unit_db_add ~clock ~unit_id
         (Array.of_list (List.map (fun (r : _ Unit_db.record) -> r.r_session_id) records)));
    add "unit_db.merge" (Layers.unit_db_merge ~clock ~unit_id records);
    add "selection.assign"
      (Layers.selection_assign ~clock
         ~n_backups:sc.Scenario.policy.Haf_core.Policy.n_backups
         ~members:(Scenario.servers_for_unit sc 0)
         (List.map
            (fun (r : _ Unit_db.record) ->
              {
                Haf_core.Selection.p_session_id = r.r_session_id;
                p_primary = r.r_primary;
                p_backups = r.r_backups;
              })
            records));
    let record = R.Fw.encode_persisted (R.Fw.P_ctx { unit_id; session_id; snap }) in
    sizes := ("store.record.bytes", "bytes", String.length record) :: !sizes;
    (* WAL length between compactions: the run's records per server per
       snapshot period (128 without stores). *)
    let wal_length =
      match sc.Scenario.store with
      | Some cfg ->
          let periods =
            float_of_int sc.Scenario.n_servers
            *. (sc.Scenario.duration /. cfg.Haf_store.Store.snapshot_period)
          in
          Int.max 16 (int_of_float (float_of_int c.wal_records /. periods))
      | None -> 128
    in
    sizes := ("store.wal_length", "count", wal_length) :: !sizes;
    add "store.log_sync" (Layers.store_log_sync ~clock ~record ~wal_length);
    (List.rev !timings, List.rev !sizes)

  let run ~cpu ~traced wl ~seed =
    let start_cpu = ref 0. and start_words = ref 0. and starts = ref 0 in
    let start f =
      if traced then begin
        let w0 = Gc.minor_words () in
        let c0 = cpu () in
        f ();
        start_cpu := !start_cpu +. (cpu () -. c0);
        start_words := !start_words +. (Gc.minor_words () -. w0);
        incr starts
      end
      else f ()
    in
    (* Every run starts after a full collection, so none pays for its
       predecessor's garbage. *)
    Gc.compact ();
    let w, probe = build wl ~seed ~start in
    if traced then begin
      Probe.record_events probe ~max:recorded_events;
      Probe.sample_pending probe (fun () -> Engine.pending w.R.engine);
      Profile.reset ();
      Profile.set_clock (Some cpu);
      Profile.enable ()
    end;
    Haf_experiments.Runner.reset_observed ();
    let w0 = Gc.minor_words () in
    let c0 = cpu () in
    ignore (R.run w);
    let cpu_s = cpu () -. c0 in
    let minor_words = Gc.minor_words () -. w0 in
    let profile =
      if traced then begin
        let p = Profile.snapshot () in
        Profile.disable ();
        Profile.set_clock None;
        p
      end
      else []
    in
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let counters = counters w in
    let timings, sizes =
      if traced then layer_timings ~clock:cpu ~seed w probe counters else ([], [])
    in
    let starts =
      if traced && !starts > 0 then
        let n = float_of_int !starts in
        Some { Layers.ns = !start_cpu *. 1e9 /. n; words = !start_words /. n; samples = !starts }
      else None
    in
    { seed; probe; counters; cpu_s; minor_words; top_heap_words; starts; profile; timings; sizes }
end
