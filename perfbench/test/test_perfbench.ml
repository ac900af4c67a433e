(* Smoke tests for the benchmark: each workload, scaled down, runs
   untraced and traced through the same code path as the real command,
   with fake injected clocks; the traced replay must match the untraced
   run exactly, and the result must carry every metric the JSON line
   promises.  A source check pins the clock injection: only
   bin/main.ml may waive haf-lint's R1.  A hand-fed event stream pins
   the probe's update and critical-response accounting. *)

module Bench = Haf_perfbench.Bench
module Workload = Haf_perfbench.Workload
module Probe = Haf_perfbench.Probe
module Samples = Haf_perfbench.Samples
module Events = Haf_core.Events

(* A deterministic stand-in clock: 1 us per reading. *)
let fake_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 1e-6;
    !t

let small (w : Workload.t) ~sessions ~clients ~duration =
  { w with sessions; clients; scenario = { w.scenario with duration }; nominal_cpu_s = 1. }

let workload name =
  match Workload.of_string name with Some w -> w | None -> failwith name

let failures = ref 0

let check ok what =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let smoke (w : Workload.t) =
  let label = Workload.to_string w.name in
  let r =
    Bench.run ~wall:(fake_clock ()) ~cpu:(fake_clock ()) w ~seed:3 ~seconds:2. ~trace:true
  in
  check (r.Bench.iterations = 2) (label ^ ": two scenario runs");
  check r.Bench.correct (label ^ ": correct: " ^ String.concat "; " r.Bench.problems);
  check (r.Bench.attempted > 0) (label ^ ": attempts counted");
  List.iter
    (fun name ->
      check
        (List.exists
           (fun (m : Bench.metric) -> m.name = name && m.value <> None)
           r.Bench.end_to_end)
        (label ^ ": end-to-end metric " ^ name))
    Bench.gated;
  check (List.length r.Bench.per_layer >= 60) (label ^ ": per-layer metrics");
  let line = Bench.json_line r ~trace:true in
  check
    (String.length line > 20 && String.sub line 0 17 = "{\"correct\": true,")
    (label ^ ": json line");
  Printf.printf "%s: ok (%d attempts, %d failed)\n%!" label r.Bench.attempted r.Bench.failed

(* An update a backup applied before the primary reaches a primary once,
   whoever takes over later; a critical response re-sent after a
   takeover is a new attempt, and fails only if it never arrives. *)
let probe_accounting () =
  let p = Probe.create ~horizon:100. in
  let ev now e = Probe.observe p ~now e in
  let session_id = "s" in
  ev 1. (Request_sent { client = 9; session_id; seq = 1 });
  ev 1.001 (Request_applied { server = 2; session_id; seq = 1; role = Backup });
  ev 1.002 (Request_applied { server = 1; session_id; seq = 1; role = Primary });
  ev 2. (Takeover { server = 2; session_id; kind = Crash; from_primary = Some 1; had_live_context = true });
  ev 3. (Request_sent { client = 9; session_id; seq = 2 });
  ev 3.001 (Request_applied { server = 2; session_id; seq = 2; role = Backup });
  ev 4. (Takeover { server = 2; session_id; kind = Crash; from_primary = Some 1; had_live_context = true });
  check (Samples.count (Probe.updates p) = 2) "probe: each update reaches a primary once";
  check (Probe.applied p = 1) "probe: one primary apply";
  let crit server id = Events.Response_sent { server; session_id; id; critical = true } in
  let got id = Events.Response_received { client = 9; session_id; id; critical = true; from_server = 2 } in
  ev 5. (crit 1 10);
  ev 5.001 (got 10);
  ev 6. (crit 2 10);
  ev 6.001 (got 10);
  ev 7. (crit 2 20);
  ev 7.5 (crit 2 20);
  ev 8. (crit 3 20);
  check (Probe.attempted p = 2 + 3) "probe: 2 updates and 3 critical sends attempted";
  check (Probe.failures p = (0, 0, 1)) "probe: one critical response never received";
  Printf.printf "probe: ok\n%!"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let clock_injection () =
  let waivers dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.filter (fun f -> contains (read_file (Filename.concat dir f)) "allow R1")
    |> List.map (Filename.concat dir)
  in
  check (waivers "../src" = []) "no R1 waiver in src/";
  check (waivers "../bin" = [ "../bin/main.ml" ]) "bin/main.ml holds the clock waivers"

let () =
  clock_injection ();
  probe_accounting ();
  smoke (small (workload "updates") ~sessions:24 ~clients:4 ~duration:13.);
  smoke (small (workload "failover") ~sessions:24 ~clients:4 ~duration:30.);
  smoke (small (workload "scale-10k") ~sessions:400 ~clients:4 ~duration:22.);
  if !failures > 0 then exit 1
