(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --list

   prints every metric by name, unit and sample count, then the JSON
   result line; exits 1 when a run is incorrect, 2 on bad arguments.
   [--list] prints the workload names, one a line. *)

module Bench = Haf_perfbench.Bench
module Workload = Haf_perfbench.Workload

(* haf-lint: allow R1 — the benchmark's CPU clock, injected into every
   measurement from here; it never feeds the simulation. *)
let cpu () = Sys.time ()

(* haf-lint: allow R1 — wall clock for set-up time only, injected the
   same way. *)
let wall () = Unix.gettimeofday ()

let () =
  let names = List.map (fun w -> Workload.to_string w.Workload.name) Workload.all in
  let workload = ref "" and list = ref false and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " names );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window in seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--list", Arg.Set list, " print the workload names and exit");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !list then begin
    List.iter print_endline names;
    exit 0
  end;
  let wl =
    match Workload.of_string !workload with
    | Some wl -> wl
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        Arg.usage spec usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  Printf.printf "machine    nproc=%d ocaml=%s word_size=%d\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.word_size;
  let r = Bench.run ~wall ~cpu wl ~seed:!seed ~seconds:!seconds ~trace in
  Bench.pp_report Format.std_formatter r;
  print_endline (Bench.json_line r ~trace);
  if not r.Bench.correct then exit 1
