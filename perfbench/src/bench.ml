module Profile = Haf_sim.Profile

type metric = {
  name : string;
  value : float option;
  unit_ : string;
  samples : int;
  exact : bool;
}

type result = {
  workload : Workload.t;
  iterations : int;
  correct : bool;
  problems : string list;
  attempted : int;
  failed : int;
  failures : int * int * int;
  open_gaps : int;
  rates : float list;
  setups : Samples.t;
  calibs : Samples.t;
  end_to_end : metric list;
  per_layer : metric list;
}

(* The E12 bench's response rate: one item every 2 s per session. *)
module Slow_synthetic = struct
  include Haf_services.Synthetic

  let name = "synthetic-slow"

  let tick_period = 2.0
end

module Fast = Drive.Make (Haf_services.Synthetic)
module Slow = Drive.Make (Slow_synthetic)

let gated =
  [
    "setup_s";
    "ops_per_cpu_s";
    "peak_heap_mb";
    "update_p50_ms";
    "update_p99_ms";
    "grant_p50_ms";
  ]

let setup_reps = 8

let m ?(exact = true) ?(samples = 1) name unit_ value =
  { name; value = Some value; unit_; samples; exact }

let pct name s p =
  {
    name;
    value = Option.map (fun v -> v *. 1000.) (Samples.percentile s p);
    unit_ = "ms";
    samples = Samples.count s;
    exact = true;
  }

let timing name (t : Layers.timing) =
  [
    m ~exact:false ~samples:t.samples (name ^ "_ns") "ns" t.ns;
    m ~exact:false ~samples:t.samples (name ^ "_words") "words" t.words;
  ]

let ratio a b = if b = 0. then 0. else a /. b

let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let rate (r : Drive.run) = ratio (float_of_int (Probe.ops r.probe)) r.cpu_s

let pool f (runs : Drive.run list) =
  let into = Samples.create () in
  List.iter (fun (r : Drive.run) -> Samples.append ~into (f r.probe)) runs;
  into

(* [scaled] holds each set-up's wall time over the calibration time
   beside it; [speed] is the calibration's median over its reference
   duration, so scaling by it reports a rate at the reference speed. *)
let end_to_end ~scaled ~speed (runs : Drive.run list) =
  let ops = isum (fun (r : Drive.run) -> Probe.ops r.probe) runs in
  (* The collector never returns a dead world's heap, so a later run's
     peak also holds its predecessors' fragments: only the first run of
     the process measures the program alone. *)
  let heap = (List.hd runs).top_heap_words in
  let attempted = isum (fun (r : Drive.run) -> Probe.attempted r.probe) runs in
  let failed = isum (fun (r : Drive.run) -> Probe.failed r.probe) runs in
  let grants = pool Probe.grants runs
  and updates = pool Probe.updates runs
  and gaps = pool Probe.gaps runs in
  [
    m ~exact:false ~samples:(Samples.count scaled) "setup_s" "s"
      (Calib.reference_s *. Option.value (Samples.median scaled) ~default:0.);
    m ~exact:false ~samples:ops "ops_per_cpu_s" "1/s"
      (speed *. ratio (float_of_int ops) (fsum (fun (r : Drive.run) -> r.cpu_s) runs));
    m ~exact:false "peak_heap_mb" "MB"
      (float_of_int (heap * (Sys.word_size / 8)) /. 1e6);
    pct "update_p50_ms" updates 0.5;
    pct "update_p99_ms" updates 0.99;
    pct "grant_p50_ms" grants 0.5;
    pct "grant_p95_ms" grants 0.95;
    pct "gap_p50_ms" gaps 0.5;
    pct "gap_p95_ms" gaps 0.95;
    m ~samples:attempted "failed_frac" "ratio" (ratio (float_of_int failed) (float_of_int attempted));
  ]

let slot (r : Drive.run) name f =
  fsum (fun (e : Profile.entry) -> if e.e_name = name then f e else 0.) r.profile

(* [twin] is the untraced run of the seed [traced] replays. *)
let per_layer ~(twin : Drive.run) (traced : Drive.run) =
  let c = traced.counters and p = traced.probe in
  let ops = float_of_int (Probe.ops p) in
  let count name v = m name "count" (float_of_int v) in
  let per_op name unit_ v = m ~samples:(Probe.ops p) name unit_ (ratio (float_of_int v) ops) in
  let profile name s = m ~exact:false name "cpu-s" (slot traced s (fun e -> e.e_cpu_s)) in
  let heap = float_of_int twin.top_heap_words in
  let starts = match traced.starts with Some t -> timing "fw.start_session" t | None -> [] in
  [
    per_op "sim.events_per_op" "ratio" c.events;
    count "sim.pending_peak" (Probe.pending_peak p);
    profile "profile.engine_internal_cpu_s" "engine.internal";
    profile "profile.engine_deliver_cpu_s" "engine.deliver";
    per_op "net.datagrams_per_op" "ratio" c.datagrams;
    per_op "net.bytes_per_op" "bytes" c.net_bytes;
    m "transport.acks_per_payload" "ratio"
      (ratio (float_of_int c.transport.acks_sent) (float_of_int c.transport.payloads_sent));
    count "transport.retransmissions" c.transport.retransmissions;
    count "transport.rejected" c.transport.rejected;
    count "gcs.view_changes" c.view_changes;
    count "gcs.audits_failed" c.audits_failed;
    count "gcs.resets" c.resets;
    profile "profile.gcs_heartbeat_cpu_s" "gcs.heartbeat";
    m ~exact:false "profile.gcs_heartbeat_words" "words"
      (slot traced "gcs.heartbeat" (fun e -> e.e_minor_words));
    profile "profile.gcs_batch_cpu_s" "gcs.batch";
    m "fw.propagations_per_session_s" "1/s"
      (ratio (float_of_int (Probe.propagations p)) (Probe.session_seconds p));
    count "fw.exchange_msgs" (Probe.exchange_msgs p);
    m "fw.exchange_bytes" "bytes" (float_of_int (Probe.exchange_bytes p));
    m ~samples:(Probe.crash_takeovers p) "fw.takeover_live_ratio" "ratio"
      (ratio (float_of_int (Probe.live_takeovers p)) (float_of_int (Probe.crash_takeovers p)));
    profile "profile.framework_admit_cpu_s" "framework.admit";
    profile "profile.framework_tick_cpu_s" "framework.tick";
    per_op "monitor.events_per_op" "ratio" c.monitor_events;
    profile "profile.monitor_event_cpu_s" "monitor.event";
    profile "profile.monitor_pump_cpu_s" "monitor.pump";
    count "store.fsyncs" c.fsyncs;
    m "store.bytes_logged" "bytes" (float_of_int c.bytes_logged);
    count "store.recoveries" c.recoveries;
    count "store.recovered_wal_records" (Probe.recovered_wal_records p);
    m ~exact:false ~samples:(Probe.ops p) "gc.minor_words_per_op" "words"
      (ratio twin.minor_words ops);
    m ~exact:false "gc.heap_words_per_session" "words"
      (ratio heap (float_of_int (Probe.granted twin.probe)));
    m ~exact:false "gc.heap_words_per_update" "words"
      (ratio heap (float_of_int (Probe.applied twin.probe)));
    m ~exact:false "trace.overhead_frac" "ratio" (1. -. ratio (rate traced) (rate twin));
    m ~exact:false "profile.sum_over_cpu" "ratio"
      (ratio (fsum (fun (e : Profile.entry) -> e.e_cpu_s) traced.profile) traced.cpu_s);
  ]
  @ starts
  @ List.concat_map (fun (n, t) -> timing n t) traced.timings
  @ List.map (fun (n, u, v) -> m n u (float_of_int v)) traced.sizes

(* The traced run must replay the untraced one exactly: tracing only
   reads, so any difference is a perturbation (or nondeterminism). *)
let exact_key (r : Drive.run) =
  let c = r.counters in
  Probe.summary r.probe
  @ [
      ("events", string_of_int c.events);
      ("datagrams", string_of_int c.datagrams);
      ("net_bytes", string_of_int c.net_bytes);
      ("view_changes", string_of_int c.view_changes);
      ("violations", string_of_int c.violations);
    ]

let differences a b =
  List.filter_map
    (fun ((k, va), (_, vb)) ->
      if String.equal va vb then None else Some (Printf.sprintf "%s: %s vs %s" k va vb))
    (List.combine (exact_key a) (exact_key b))

let run ~wall ~cpu (wl : Workload.t) ~seed ~seconds ~trace =
  let setup, drive =
    if wl.slow_ticks then (Slow.setup_wall_s, Slow.run) else (Fast.setup_wall_s, Fast.run)
  in
  let k = Workload.iterations wl ~seconds in
  let seeds = List.init k (fun i -> Workload.iteration_seed ~seed i) in
  (* [setup_reps] set-ups of the first scenario seed are timed ahead of
     every scenario run and after the last, so the same work is sampled
     across the whole measurement window.  Each is followed by one
     calibration, so that a set-up and the host speed it ran at are
     measured within milliseconds of each other: the host's speed
     switches that fast. *)
  let setups = Samples.create () and calibs = Samples.create () and scaled = Samples.create () in
  let time_setups () =
    for _ = 1 to setup_reps do
      let dt = setup ~wall wl ~seed:(List.hd seeds) in
      let c = Calib.time ~clock:cpu in
      Samples.add setups dt;
      Samples.add calibs c;
      Samples.add scaled (dt /. c)
    done
  in
  let plain =
    List.map
      (fun s ->
        time_setups ();
        drive ~cpu ~traced:false wl ~seed:s)
      seeds
  in
  time_setups ();
  (* One traced replay, of the first seed, gives the layer numbers and
     the perturbation check. *)
  let twin = List.hd plain in
  let traced = if trace then Some (drive ~cpu ~traced:true wl ~seed:twin.seed) else None in
  let attempted = isum (fun (r : Drive.run) -> Probe.attempted r.probe) plain in
  let differ what a b = List.map (fun d -> what ^ " differs: " ^ d) (differences a b) in
  let problems =
    List.concat_map
      (fun (r : Drive.run) ->
        (if r.counters.violations > 0 then
           Printf.sprintf "scenario seed %d: %d monitor violations, first:" r.seed
             r.counters.violations
           :: r.counters.first_violations
         else [])
        @
        if Probe.ungranted r.probe > 0 then
          [
            Printf.sprintf "scenario seed %d: %d sessions never granted" r.seed
              (Probe.ungranted r.probe);
          ]
        else [])
      (plain @ Option.to_list traced)
    @ (match traced with Some t -> differ "traced run" twin t | None -> [])
    @ if attempted = 0 then [ "no attempts" ] else []
  in
  {
    workload = wl;
    iterations = k;
    correct = problems = [];
    problems;
    attempted;
    failed = isum (fun (r : Drive.run) -> Probe.failed r.probe) plain;
    failures =
      List.fold_left
        (fun (u, s, c) (r : Drive.run) ->
          let u', s', c' = Probe.failures r.probe in
          (u + u', s + s', c + c'))
        (0, 0, 0) plain;
    open_gaps = isum (fun (r : Drive.run) -> Probe.open_gaps r.probe) plain;
    rates = List.map rate plain;
    end_to_end =
      end_to_end ~scaled
        ~speed:(Option.value (Samples.median calibs) ~default:0. /. Calib.reference_s)
        plain;
    setups;
    calibs;
    per_layer = (match traced with Some t -> per_layer ~twin t | None -> []);
  }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_line r ~trace =
  let metrics =
    if trace then r.per_layer
    else List.filter (fun x -> List.mem x.name gated) r.end_to_end
  in
  let entries =
    List.filter_map
      (fun x ->
        Option.map
          (fun v ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_float v) x.unit_)
          x.value)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " entries)

let pp_metric ppf ~section x =
  Format.fprintf ppf "%-10s %-34s %14s %-6s n=%-8d %s@." section x.name
    (match x.value with Some v -> Printf.sprintf "%.6g" v | None -> "absent")
    x.unit_ x.samples
    (if x.exact then "exact" else "machine")

let pp_report ppf r =
  let name = Workload.to_string r.workload.name in
  Format.fprintf ppf "workload   %s: %s@." name (Workload.why r.workload.name);
  Format.fprintf ppf "runs       %d scenario seed(s)@." r.iterations;
  let q s p = Option.fold ~none:"-" ~some:(Printf.sprintf "%.4g") (Samples.quantile s p) in
  Format.fprintf ppf "set-ups    %d timed, wall s min %s median %s max %s@."
    (Samples.count r.setups) (q r.setups 0.) (q r.setups 0.5) (q r.setups 1.);
  Format.fprintf ppf "calib      %d timed, cpu s min %s median %s max %s (reference %g)@."
    (Samples.count r.calibs) (q r.calibs 0.) (q r.calibs 0.5) (q r.calibs 1.) Calib.reference_s;
  Format.fprintf ppf "rates      %s ops/cpu-s per scenario run, unscaled@."
    (String.concat " " (List.map (Printf.sprintf "%.0f") r.rates));
  List.iter (pp_metric ppf ~section:"end-to-end") r.end_to_end;
  List.iter (pp_metric ppf ~section:"layer") r.per_layer;
  let u, s, c = r.failures in
  Format.fprintf ppf
    "failures   %d of %d attempts: %d updates never reached a primary, %d \
     sessions never granted, %d critical responses never received@."
    r.failed r.attempted u s c;
  Format.fprintf ppf "open gaps  %d sessions still without service at the horizon@." r.open_gaps;
  List.iter (fun p -> Format.fprintf ppf "PROBLEM    %s@." p) r.problems;
  Format.fprintf ppf "verdict    %s@." (if r.correct then "correct" else "INCORRECT")
