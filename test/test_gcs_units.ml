(* Unit tests for the GCS building blocks (views, config, failure
   detector, latency models, trace) plus adversarial whole-protocol
   scenarios: partitions striking during view changes, cascades, and
   randomized partition schedules. *)

module Engine = Haf_sim.Engine
module View = Haf_gcs.View
module Config = Haf_gcs.Config
module Fd = Haf_gcs.Failure_detector
module Latency = Haf_net.Latency
module Trace = Haf_sim.Trace
module Gcs = Haf_gcs.Gcs

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Wire.validate: the decode boundary *)

module Wire = Haf_gcs.Wire

let vid = { View.Id.epoch = 2; coord = 0 }

let uid = { Wire.origin = 1; incarnation = 3; serial = 0 }

let entry = { Wire.uid; orig = 1; payload = "x" }

let advert = { Wire.adv_group = "g"; adv_vid = vid; adv_delivered = 4 }

let info =
  { Wire.fi_sender = 1; fi_member = true; fi_prev_vid = vid; fi_log = [ (1, entry) ] }

(* One well-formed value per constructor. *)
let accepted =
  [
    ("ping", Wire.Ping { adverts = [ advert ] });
    ("pong", Wire.Pong { adverts = [] });
    ("propose", Wire.Propose { group = "g"; epoch = 3; candidates = [ 0; 1 ] });
    ("flush_reply", Wire.Flush_reply { group = "g"; epoch = 3; info });
    ("nack", Wire.Nack { group = "g"; epoch_hint = 0 });
    ( "install",
      Wire.Install
        { group = "g"; epoch = 3; view_id = vid; members = [ 0; 1 ];
          sync = [ (vid, [ (1, entry) ]) ] } );
    ("data_req", Wire.Data_req { group = "g"; entry });
    ("data", Wire.Data { group = "g"; vid; seq = 1; entry });
    ("data_batch", Wire.Data_batch { group = "g"; vid; entries = [ (1, entry); (2, entry) ] });
    ("open_send", Wire.Open_send { group = "g"; entry; ttl = 0 });
    ("leave", Wire.Leave { group = "g"; who = 2 });
    ("p2p", Wire.P2p { payload = "" });
  ]

(* One value per malformed field. *)
let rejected =
  let bad_vid = { View.Id.epoch = -1; coord = 0 } in
  let bad_entry = { entry with Wire.orig = -1 } in
  let uid_with f = { entry with Wire.uid = f uid } in
  [
    ("advert: empty group", Wire.Ping { adverts = [ { advert with adv_group = "" } ] });
    ("advert: bad vid", Wire.Pong { adverts = [ { advert with adv_vid = bad_vid } ] });
    ("advert: negative coord",
      Wire.Ping { adverts = [ { advert with adv_vid = { vid with View.Id.coord = -1 } } ] });
    ("advert: negative delivered",
      Wire.Ping { adverts = [ advert; { advert with adv_delivered = -1 } ] });
    ("propose: empty group", Wire.Propose { group = ""; epoch = 3; candidates = [ 0 ] });
    ("propose: epoch 0", Wire.Propose { group = "g"; epoch = 0; candidates = [ 0 ] });
    ("propose: no candidates", Wire.Propose { group = "g"; epoch = 3; candidates = [] });
    ("propose: negative candidate",
      Wire.Propose { group = "g"; epoch = 3; candidates = [ 0; -2 ] });
    ("flush_reply: empty group", Wire.Flush_reply { group = ""; epoch = 3; info });
    ("flush_reply: epoch 0", Wire.Flush_reply { group = "g"; epoch = 0; info });
    ("flush_reply: negative sender",
      Wire.Flush_reply { group = "g"; epoch = 3; info = { info with fi_sender = -1 } });
    ("flush_reply: bad prev vid",
      Wire.Flush_reply { group = "g"; epoch = 3; info = { info with fi_prev_vid = bad_vid } });
    ("flush_reply: seq 0",
      Wire.Flush_reply { group = "g"; epoch = 3; info = { info with fi_log = [ (0, entry) ] } });
    ("flush_reply: bad entry",
      Wire.Flush_reply
        { group = "g"; epoch = 3; info = { info with fi_log = [ (1, bad_entry) ] } });
    ("nack: empty group", Wire.Nack { group = ""; epoch_hint = 1 });
    ("nack: negative hint", Wire.Nack { group = "g"; epoch_hint = -1 });
    ( "install: empty group",
      Wire.Install { group = ""; epoch = 3; view_id = vid; members = [ 0 ]; sync = [] } );
    ( "install: epoch 0",
      Wire.Install { group = "g"; epoch = 0; view_id = vid; members = [ 0 ]; sync = [] } );
    ( "install: bad view id",
      Wire.Install { group = "g"; epoch = 3; view_id = bad_vid; members = [ 0 ]; sync = [] } );
    ( "install: no members",
      Wire.Install { group = "g"; epoch = 3; view_id = vid; members = []; sync = [] } );
    ( "install: negative member",
      Wire.Install { group = "g"; epoch = 3; view_id = vid; members = [ -1 ]; sync = [] } );
    ( "install: bad sync vid",
      Wire.Install
        { group = "g"; epoch = 3; view_id = vid; members = [ 0 ]; sync = [ (bad_vid, []) ] } );
    ( "install: bad sync log",
      Wire.Install
        { group = "g"; epoch = 3; view_id = vid; members = [ 0 ];
          sync = [ (vid, [ (-1, entry) ]) ] } );
    ("data_req: empty group", Wire.Data_req { group = ""; entry });
    ("data_req: negative origin",
      Wire.Data_req { group = "g"; entry = uid_with (fun u -> { u with origin = -1 }) });
    ("data_req: negative incarnation",
      Wire.Data_req { group = "g"; entry = uid_with (fun u -> { u with incarnation = -1 }) });
    ("data_req: negative serial",
      Wire.Data_req { group = "g"; entry = uid_with (fun u -> { u with serial = -1 }) });
    ("data: empty group", Wire.Data { group = ""; vid; seq = 1; entry });
    ("data: bad vid", Wire.Data { group = "g"; vid = bad_vid; seq = 1; entry });
    ("data: seq 0", Wire.Data { group = "g"; vid; seq = 0; entry });
    ("data: bad entry", Wire.Data { group = "g"; vid; seq = 1; entry = bad_entry });
    ("data_batch: empty group", Wire.Data_batch { group = ""; vid; entries = [ (1, entry) ] });
    ("data_batch: bad vid",
      Wire.Data_batch { group = "g"; vid = bad_vid; entries = [ (1, entry) ] });
    ("data_batch: no entries", Wire.Data_batch { group = "g"; vid; entries = [] });
    ("data_batch: bad entry",
      Wire.Data_batch { group = "g"; vid; entries = [ (1, entry); (2, bad_entry) ] });
    ("open_send: empty group", Wire.Open_send { group = ""; entry; ttl = 1 });
    ("open_send: bad entry", Wire.Open_send { group = "g"; entry = bad_entry; ttl = 1 });
    ("open_send: negative ttl", Wire.Open_send { group = "g"; entry; ttl = -1 });
    ("leave: empty group", Wire.Leave { group = ""; who = 1 });
    ("leave: negative who", Wire.Leave { group = "g"; who = -1 });
  ]

let test_wire_validate () =
  List.iter
    (fun (name, m) ->
      check Alcotest.bool ("accepts " ^ name) true (Result.is_ok (Wire.validate m)))
    accepted;
  List.iter
    (fun (name, m) ->
      check Alcotest.bool ("rejects " ^ name) true (Result.is_error (Wire.validate m)))
    rejected

(* ------------------------------------------------------------------ *)
(* Uid_set against a plain list of uids *)

module Uid_set = Haf_gcs.Uid_set
module Seqset = Haf_sim.Seqset

(* Random add histories over 4 sources: mostly each source's next serial,
   sometimes a repeat or a jump either way. *)
let prop_uid_set_oracle =
  let op =
    QCheck.Gen.(
      triple (int_bound 3) (frequency [ (4, return None); (1, map Option.some (int_bound 40)) ])
        unit)
  in
  QCheck.Test.make ~name:"uid_set: mem and ranges match a uid-list oracle" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 120) op))
    (fun ops ->
      let set = Uid_set.create () in
      let next = Array.make 4 0 in
      let oracle = ref [] in
      let source k = (k mod 2, 7 * (k / 2)) in
      List.iter
        (fun (k, jump, ()) ->
          let serial = match jump with Some s -> s | None -> next.(k) in
          next.(k) <- serial + 1;
          let origin, incarnation = source k in
          Uid_set.add set { Haf_gcs.Wire.origin; incarnation; serial };
          if not (List.mem (origin, incarnation, serial) !oracle) then
            oracle := (origin, incarnation, serial) :: !oracle)
        ops;
      let all_mem =
        List.for_all
          (fun k ->
            let origin, incarnation = source k in
            List.for_all
              (fun serial ->
                Bool.equal
                  (Uid_set.mem set { Haf_gcs.Wire.origin; incarnation; serial })
                  (List.mem (origin, incarnation, serial) !oracle))
              (List.init 45 Fun.id))
          [ 0; 1; 2; 3 ]
      in
      let expected =
        List.filter_map
          (fun k ->
            let o, i = source k in
            match
              List.sort_uniq Int.compare
                (List.filter_map
                   (fun (o', i', s) -> if o = o' && i = i' then Some s else None)
                   !oracle)
            with
            | [] -> None
            | serials -> Some ((o, i), serials))
          [ 0; 2; 1; 3 ]
      in
      let got = Uid_set.ranges set in
      all_mem
      && List.for_all (fun (_, r) -> Result.is_ok (Seqset.check r)) got
      && List.map (fun (src, r) -> (src, Seqset.elements r)) got = expected)

(* ------------------------------------------------------------------ *)
(* View *)

let test_view_id_order () =
  let a = { View.Id.epoch = 1; coord = 5 } in
  let b = { View.Id.epoch = 2; coord = 0 } in
  let c = { View.Id.epoch = 1; coord = 7 } in
  check Alcotest.bool "epoch dominates" true (View.Id.compare a b < 0);
  check Alcotest.bool "coord breaks ties" true (View.Id.compare a c < 0);
  check Alcotest.bool "equal" true (View.Id.equal a { View.Id.epoch = 1; coord = 5 })

let test_view_make_normalizes () =
  let v = View.make ~id:(View.Id.initial 3) ~group:"g" ~members:[ 3; 1; 3; 2 ] in
  check (Alcotest.list Alcotest.int) "sorted, deduped" [ 1; 2; 3 ] v.View.members;
  check Alcotest.int "coordinator is min" 1 (View.coordinator v);
  check Alcotest.int "size" 3 (View.size v);
  check Alcotest.bool "member" true (View.is_member v 2);
  check Alcotest.bool "non-member" false (View.is_member v 9)

let test_view_make_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "View.make: empty membership")
    (fun () -> ignore (View.make ~id:(View.Id.initial 0) ~group:"g" ~members:[]))

let test_view_singleton () =
  let v = View.singleton ~group:"g" 7 in
  check (Alcotest.list Alcotest.int) "self only" [ 7 ] v.View.members;
  check Alcotest.int "epoch zero" 0 v.View.id.View.Id.epoch

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  check Alcotest.bool "default ok" true (Result.is_ok (Config.validate Config.default));
  check Alcotest.bool "suspicion too tight" true
    (Result.is_error
       (Config.validate { Config.default with suspect_timeout = 0.05 }));
  check Alcotest.bool "bad heartbeat" true
    (Result.is_error
       (Config.validate { Config.default with heartbeat_interval = 0. }));
  check Alcotest.bool "negative ttl" true
    (Result.is_error (Config.validate { Config.default with open_send_ttl = -1 }))

(* ------------------------------------------------------------------ *)
(* Failure detector *)

let test_fd_lifecycle () =
  let fd = Fd.create ~me:0 ~suspect_timeout:1.0 in
  Fd.monitor fd 1 ~now:0.;
  Fd.monitor fd 2 ~now:0.;
  check (Alcotest.list Alcotest.int) "monitored" [ 1; 2 ] (Fd.monitored fd);
  (* Nothing suspected inside the grace period. *)
  check (Alcotest.list Alcotest.int) "no early suspicion" [] (Fd.sweep fd ~now:0.9);
  Fd.heard_from fd 1 ~now:1.0;
  check (Alcotest.list Alcotest.int) "2 went silent" [ 2 ] (Fd.sweep fd ~now:1.5);
  check Alcotest.bool "2 suspected" true (Fd.suspected fd 2);
  check Alcotest.bool "1 trusted" true (Fd.reachable fd 1);
  (* Hearing again clears the suspicion. *)
  Fd.heard_from fd 2 ~now:2.0;
  check Alcotest.bool "2 rehabilitated" false (Fd.suspected fd 2)

let test_fd_self_and_unknown () =
  let fd = Fd.create ~me:0 ~suspect_timeout:1.0 in
  Fd.monitor fd 0 ~now:0.;
  check (Alcotest.list Alcotest.int) "never monitors self" [] (Fd.monitored fd);
  check Alcotest.bool "unknown not suspected" false (Fd.suspected fd 42);
  check Alcotest.bool "unknown not reachable" false (Fd.reachable fd 42)

let test_fd_unmonitor () =
  let fd = Fd.create ~me:0 ~suspect_timeout:1.0 in
  Fd.monitor fd 1 ~now:0.;
  Fd.unmonitor fd 1;
  check (Alcotest.list Alcotest.int) "gone" [] (Fd.sweep fd ~now:10.)

let test_fd_sweep_idempotent () =
  let fd = Fd.create ~me:0 ~suspect_timeout:1.0 in
  Fd.monitor fd 1 ~now:0.;
  check (Alcotest.list Alcotest.int) "first sweep reports" [ 1 ] (Fd.sweep fd ~now:5.);
  check (Alcotest.list Alcotest.int) "second sweep silent" [] (Fd.sweep fd ~now:6.)

(* ------------------------------------------------------------------ *)
(* Latency models *)

let test_latency_positive_and_mean () =
  let rng = Haf_sim.Rng.create 3 in
  List.iter
    (fun model ->
      let n = 5000 in
      let sum = ref 0. in
      for _ = 1 to n do
        let d = Latency.sample model rng in
        if d <= 0. then Alcotest.fail "non-positive latency";
        sum := !sum +. d
      done;
      let mean = !sum /. float_of_int n in
      let expected = Latency.mean model in
      if Float.abs (mean -. expected) > 0.3 *. expected then
        Alcotest.failf "mean off for %s: %f vs %f"
          (Format.asprintf "%a" Latency.pp model)
          mean expected)
    [ Latency.lan; Latency.wan; Latency.Constant 0.01 ]

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_capture_and_filter () =
  let tr = Trace.create ~capacity:3 () in
  Trace.emit tr ~time:1. ~component:"a" "one";
  Trace.emitf tr ~time:2. ~component:"b" "n=%d" 2;
  Trace.emit tr ~time:3. ~component:"a" "three";
  check Alcotest.int "all lines" 3 (List.length (Trace.lines tr));
  check Alcotest.int "filtered" 2 (List.length (Trace.matching tr ~component:"a"));
  Trace.emit tr ~time:4. ~component:"c" "four";
  check Alcotest.int "capacity bound drops oldest" 3 (List.length (Trace.lines tr));
  (match Trace.lines tr with
  | { Trace.message = "n=2"; _ } :: _ -> ()
  | _ -> Alcotest.fail "oldest line should be the n=2 one");
  Trace.set_enabled tr false;
  Trace.emit tr ~time:5. ~component:"a" "ignored";
  check Alcotest.int "disabled records nothing" 3 (List.length (Trace.lines tr));
  check Alcotest.int "disabled sink inert" 0
    (Trace.emit Trace.disabled ~time:0. ~component:"x" "y";
     List.length (Trace.lines Trace.disabled))

let test_trace_disabled_skips_formatting () =
  (* A disabled sink must not format: a [%a] printer that counts its
     calls runs once per line on a live sink and never on a dead one. *)
  let calls = ref 0 in
  let pp ppf n =
    incr calls;
    Format.pp_print_int ppf n
  in
  let tr = Trace.create () in
  Trace.emitf tr ~time:1. ~component:"a" "v=%a" pp 7;
  check Alcotest.int "enabled: printer ran" 1 !calls;
  (match Trace.lines tr with
  | [ { Trace.message = "v=7"; _ } ] -> ()
  | _ -> Alcotest.fail "enabled sink should hold the formatted line");
  Trace.set_enabled tr false;
  Trace.emitf tr ~time:2. ~component:"a" "v=%a %s" pp 8 "x";
  Trace.emitf Trace.disabled ~time:3. ~component:"a" "v=%a" pp 9;
  check Alcotest.int "disabled: printer never ran" 1 !calls;
  check Alcotest.int "disabled: nothing recorded" 1 (List.length (Trace.lines tr))

(* ------------------------------------------------------------------ *)
(* Adverts: each peer's adverts indexed by group                       *)

module Adverts = Haf_gcs.Adverts

(* Against what the index replaced: per peer, the last advert list
   heard, searched with [List.find_opt] (the first advert for a group
   wins) and [List.exists].  Up to six adverts over four groups, so most
   lists name some group twice, with a different view id or clock. *)
let prop_adverts_oracle =
  let groups = [| "a"; "b"; "c"; "d" |] in
  let advert =
    QCheck.Gen.(
      map3
        (fun g epoch d ->
          { Wire.adv_group = groups.(g); adv_vid = { View.Id.epoch; coord = 0 };
            adv_delivered = d })
        (int_bound 3) (int_bound 5) (int_bound 9))
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun p advs -> `Record (p, advs)) (int_bound 3) (list_size (int_bound 6) advert));
          (1, map2 (fun p g -> `Forget (p, groups.(g))) (int_bound 3) (int_bound 3));
        ])
  in
  QCheck.Test.make ~name:"adverts: lookups match a per-peer list oracle" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) op))
    (fun ops ->
      let oracle = Array.make 4 None in
      let names g (a : Wire.advert) = String.equal a.adv_group g in
      let agrees t =
        Array.for_all
          (fun g ->
            Adverts.advertisers g t
            = List.filter
                (fun p ->
                  match oracle.(p) with
                  | Some advs -> List.exists (names g) advs
                  | None -> false)
                [ 0; 1; 2; 3 ]
            && List.for_all
                 (fun p ->
                   Adverts.find p g t
                   = Option.bind oracle.(p) (List.find_opt (names g)))
                 [ 0; 1; 2; 3 ])
          groups
      in
      let step (t, ok) op =
        let t =
          match op with
          | `Record (p, advs) ->
              oracle.(p) <- Some advs;
              Adverts.record p advs t
          | `Forget (p, g) ->
              oracle.(p) <-
                Option.map (List.filter (fun a -> not (names g a))) oracle.(p);
              Adverts.forget p g t
        in
        (t, ok && agrees t)
      in
      snd (List.fold_left step (Adverts.empty, true) ops))

(* A daemon whose [on_view] callback leaves one group and joins another
   during a heartbeat sweep.  Daemons 0 and 1 share groups a..d; 1
   crashes, and the tick at which 0 suspects it installs a singleton
   view in each group, in group order.  At b's install the callback
   leaves c and joins bb.  The sweep walks the groups as they were when
   it began: c, left but not yet swept, is still swept once (its stale
   state installs a singleton no table holds any more), and bb is not
   swept by it.  [join] runs a heartbeat of its own, whose sweep
   installs d; the outer sweep then finds d settled.  So a, b, c and d
   each install exactly once.  A listener node records every Ping 0
   sends: each lists 0's groups in descending order. *)
let test_on_view_changes_groups_mid_sweep () =
  let engine = Engine.create ~seed:7 () in
  let gcs = Gcs.create ~num_servers:2 engine in
  let groups = [ "a"; "b"; "c"; "d" ] in
  List.iter (fun p -> List.iter (Gcs.join gcs p) groups) [ 0; 1 ];
  let tr = Gcs.transport gcs in
  let listener = (Gcs.substrate gcs).Haf_net.Substrate.add_node () in
  let pings = ref [] in
  Haf_net.Transport.attach tr listener
    ~on_raw:(fun ~src payload ->
      match Wire.decode payload with
      | Wire.Ping { adverts } when src = 0 ->
          pings := List.map (fun (a : Wire.advert) -> a.adv_group) adverts :: !pings
      | _ -> ())
    (fun ~src:_ _ -> ());
  (* One ping from the listener makes 0 monitor it, and so ping it. *)
  Haf_net.Transport.send_unreliable tr ~src:listener ~dst:0
    (Wire.encode (Wire.Ping { adverts = [] }));
  Engine.run ~until:2. engine;
  List.iter
    (fun g ->
      check (Alcotest.list Alcotest.int) ("formed " ^ g) [ 0; 1 ]
        (Option.fold ~none:[] ~some:(fun v -> v.View.members) (Gcs.view_of gcs 0 g)))
    groups;
  let installs = ref [] in
  let switched = ref false in
  Gcs.set_app gcs 0
    {
      Haf_gcs.Daemon.no_callbacks with
      on_view =
        (fun v ->
          installs := (v.View.group, v.View.members) :: !installs;
          if String.equal v.View.group "b" && not !switched then begin
            switched := true;
            Gcs.leave gcs 0 "c";
            Gcs.join gcs 0 "bb"
          end);
    };
  pings := [];
  Gcs.crash gcs 1;
  Engine.run ~until:4. engine;
  check
    Alcotest.(list (pair string (list int)))
    "installs, in order"
    [ ("a", [ 0 ]); ("b", [ 0 ]); ("bb", [ 0 ]); ("d", [ 0 ]); ("c", [ 0 ]) ]
    (List.rev !installs);
  check Alcotest.(list string) "groups after" [ "a"; "b"; "bb"; "d" ]
    (Haf_gcs.Daemon.groups (Gcs.daemon gcs 0));
  let sent = List.rev !pings in
  check Alcotest.bool "pinged before and after the switch" true
    (List.mem [ "d"; "c"; "b"; "a" ] sent && List.mem [ "d"; "bb"; "b"; "a" ] sent);
  List.iter
    (fun advs ->
      check Alcotest.(list string) "descending group order"
        (List.sort (fun a b -> String.compare b a) advs)
        advs)
    sent

(* ------------------------------------------------------------------ *)
(* Adversarial protocol scenarios                                      *)

type recorder = {
  mutable views : (int * View.t) list;
  mutable delivered : (int * string * string) list;  (* proc, group, payload *)
}

let make ?(n = 4) ?(seed = 21) () =
  let engine = Engine.create ~seed () in
  let gcs = Gcs.create ~num_servers:n engine in
  let rec_ = { views = []; delivered = [] } in
  List.iter
    (fun p ->
      Gcs.set_app gcs p
        {
          Haf_gcs.Daemon.on_view = (fun v -> rec_.views <- (p, v) :: rec_.views);
          on_message =
            (fun ~group ~sender:_ payload ->
              rec_.delivered <- (p, group, payload) :: rec_.delivered);
          on_p2p = (fun ~sender:_ _ -> ());
        })
    (Gcs.servers gcs);
  (engine, gcs, rec_)

let last_view rec_ p =
  List.find_map (fun (q, v) -> if q = p then Some v else None) rec_.views

let seq_of rec_ p =
  List.rev
    (List.filter_map (fun (q, _, payload) -> if q = p then Some payload else None)
       rec_.delivered)

let test_partition_during_flush () =
  (* A crash triggers a view change; mid-flush the network also
     partitions.  Everyone must still reach a stable, internally
     consistent view and keep delivering within components. *)
  let engine, gcs, rec_ = make () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  Engine.run ~until:3. engine;
  Gcs.crash gcs 0;
  (* Partition right inside the suspicion/flush window. *)
  ignore
    (Engine.schedule_at engine ~time:3.4 (fun () -> Gcs.partition gcs [ [ 1 ]; [ 2; 3 ] ]));
  Engine.run ~until:10. engine;
  (match last_view rec_ 1 with
  | Some v -> check (Alcotest.list Alcotest.int) "1 alone" [ 1 ] v.View.members
  | None -> Alcotest.fail "no view at 1");
  (match last_view rec_ 2 with
  | Some v -> check (Alcotest.list Alcotest.int) "2,3 together" [ 2; 3 ] v.View.members
  | None -> Alcotest.fail "no view at 2");
  Gcs.multicast gcs 2 "g" "in-23";
  Engine.run ~until:14. engine;
  check Alcotest.bool "component still delivers" true (List.mem "in-23" (seq_of rec_ 3));
  (* Heal: everything reconverges. *)
  Gcs.heal gcs;
  Engine.run ~until:22. engine;
  List.iter
    (fun p ->
      match last_view rec_ p with
      | Some v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "healed at %d" p)
            [ 1; 2; 3 ] v.View.members
      | None -> Alcotest.fail "no view")
    [ 1; 2; 3 ]

let test_cascading_crashes () =
  (* Kill servers one after another within each other's flush windows:
     the survivor must still end in a singleton view and keep going. *)
  let engine, gcs, rec_ = make ~n:4 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  Engine.run ~until:3. engine;
  ignore (Engine.schedule_at engine ~time:3.0 (fun () -> Gcs.crash gcs 0));
  ignore (Engine.schedule_at engine ~time:3.45 (fun () -> Gcs.crash gcs 1));
  ignore (Engine.schedule_at engine ~time:3.9 (fun () -> Gcs.crash gcs 2));
  Engine.run ~until:12. engine;
  (match last_view rec_ 3 with
  | Some v -> check (Alcotest.list Alcotest.int) "last one standing" [ 3 ] v.View.members
  | None -> Alcotest.fail "no view at survivor");
  Gcs.multicast gcs 3 "g" "alone";
  Engine.run ~until:14. engine;
  check Alcotest.bool "self-delivery works" true (List.mem "alone" (seq_of rec_ 3))

let test_view_epochs_monotonic () =
  let engine, gcs, rec_ = make () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  Engine.run ~until:3. engine;
  Gcs.crash gcs 1;
  Engine.run ~until:8. engine;
  Gcs.partition gcs [ [ 0 ]; [ 2; 3 ] ];
  Engine.run ~until:13. engine;
  Gcs.heal gcs;
  Engine.run ~until:20. engine;
  (* Per process, installed epochs strictly increase. *)
  List.iter
    (fun p ->
      let epochs =
        List.rev rec_.views
        |> List.filter_map (fun (q, v) ->
               if q = p then Some v.View.id.View.Id.epoch else None)
      in
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
        | [ _ ] | [] -> true
      in
      check Alcotest.bool
        (Printf.sprintf "epochs monotonic at %d" p)
        true (strictly_increasing epochs))
    [ 0; 2; 3 ]

let prop_random_partition_schedule =
  (* Random two-way partitions and heals; at the end (after a final heal
     and settle) all alive processes agree on one view and share the
     delivered-message ORDER (pairwise prefix consistency on the common
     suffix is implied by ending in the same view: VS forces the same
     final delivery sets per view). *)
  QCheck.Test.make ~name:"gcs: random partition schedules reconverge" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let engine, gcs, rec_ = make ~seed:(seed + 1) () in
      let rng = Haf_sim.Rng.create (seed + 5) in
      List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
      Engine.run ~until:3. engine;
      let t = ref 3. in
      for _ = 1 to 3 do
        let cut = !t +. Haf_sim.Rng.float rng 2. in
        let heal = cut +. 1. +. Haf_sim.Rng.float rng 2. in
        let side = Haf_sim.Rng.sample rng 2 [ 0; 1; 2; 3 ] in
        let other = List.filter (fun p -> not (List.mem p side)) [ 0; 1; 2; 3 ] in
        ignore
          (Engine.schedule_at engine ~time:cut (fun () ->
               Gcs.partition gcs [ side; other ]));
        ignore (Engine.schedule_at engine ~time:heal (fun () -> Gcs.heal gcs));
        (* Traffic from random members throughout. *)
        for i = 1 to 4 do
          let at = cut +. Haf_sim.Rng.float rng 2. in
          let who = Haf_sim.Rng.int rng 4 in
          ignore
            (Engine.schedule_at engine ~time:at (fun () ->
                 Gcs.multicast gcs who "g" (Printf.sprintf "%f-%d" at i)))
        done;
        t := heal
      done;
      Engine.run ~until:(!t +. 12.) engine;
      (* All agree on the final view... *)
      let finals = List.filter_map (fun p -> last_view rec_ p) [ 0; 1; 2; 3 ] in
      let ids =
        List.sort_uniq View.Id.compare (List.map (fun v -> v.View.id) finals)
      in
      List.length ids = 1
      && List.for_all (fun v -> v.View.members = [ 0; 1; 2; 3 ]) finals
      (* ...and nobody ever delivered a payload twice. *)
      && List.for_all
           (fun p ->
             let s = seq_of rec_ p in
             List.length s = List.length (List.sort_uniq compare s))
           [ 0; 1; 2; 3 ])

(* Regression for the dueling-proposers livelock: repeated partitions
   ending with components coordinated by different processes (e.g. {0,2}
   and {1,3}) used to merge into an epoch-incrementing NACK duel between
   the two coordinators, leaving the group split forever.  These exact
   randomized schedules (found by seed sweep) reproduced it. *)
let run_partition_schedule seed =
  let engine = Engine.create ~seed:(seed + 1) () in
  let gcs = Gcs.create ~num_servers:4 engine in
  let views = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Gcs.set_app gcs p
        {
          Haf_gcs.Daemon.on_view = (fun v -> Hashtbl.replace views p v);
          on_message = (fun ~group:_ ~sender:_ _ -> ());
          on_p2p = (fun ~sender:_ _ -> ());
        })
    (Gcs.servers gcs);
  let rng = Haf_sim.Rng.create (seed + 5) in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  Engine.run ~until:3. engine;
  let t = ref 3. in
  for _ = 1 to 3 do
    let cut = !t +. Haf_sim.Rng.float rng 2. in
    let heal = cut +. 1. +. Haf_sim.Rng.float rng 2. in
    let side = Haf_sim.Rng.sample rng 2 [ 0; 1; 2; 3 ] in
    let other = List.filter (fun p -> not (List.mem p side)) [ 0; 1; 2; 3 ] in
    ignore
      (Engine.schedule_at engine ~time:cut (fun () -> Gcs.partition gcs [ side; other ]));
    ignore (Engine.schedule_at engine ~time:heal (fun () -> Gcs.heal gcs));
    for i = 1 to 4 do
      let at = cut +. Haf_sim.Rng.float rng 2. in
      let who = Haf_sim.Rng.int rng 4 in
      ignore
        (Engine.schedule_at engine ~time:at (fun () ->
             Gcs.multicast gcs who "g" (Printf.sprintf "%f-%d" at i)))
    done;
    t := heal
  done;
  Engine.run ~until:(!t +. 12.) engine;
  List.filter_map (fun p -> Hashtbl.find_opt views p) [ 0; 1; 2; 3 ]

let test_merge_livelock_regression () =
  List.iter
    (fun seed ->
      let finals = run_partition_schedule seed in
      let ids =
        List.sort_uniq View.Id.compare (List.map (fun v -> v.View.id) finals)
      in
      check Alcotest.int (Printf.sprintf "seed %d: one final view" seed) 1
        (List.length ids);
      List.iter
        (fun v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "seed %d: full membership" seed)
            [ 0; 1; 2; 3 ] v.View.members;
          check Alcotest.bool
            (Printf.sprintf "seed %d: epochs stayed bounded (no duel)" seed)
            true
            (v.View.id.View.Id.epoch < 40))
        finals)
    [ 741; 1197; 2183; 2299 ]

(* Direct check of the virtual synchrony definition: "when members move
   together from one view to another, they all receive the same messages
   in the earlier view."  We segment each process's deliveries by the
   view they occurred in (synchronization-set deliveries during a view
   change happen before the new view's callback, so they land in the old
   segment, as the definition requires), then compare segments across
   every pair of processes sharing the same (view, next view)
   transition.  With the per-group total order, the segments must be
   identical sequences, not just equal sets. *)
let prop_virtual_synchrony_direct =
  QCheck.Test.make ~name:"gcs: virtual synchrony, per shared view transition" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let engine = Engine.create ~seed:(seed + 41) () in
      let gcs = Gcs.create ~num_servers:4 engine in
      let segments = Hashtbl.create 8 in
      (* proc -> (completed (vid * payloads) list, current vid option, current payloads) *)
      List.iter
        (fun p ->
          Hashtbl.replace segments p (ref [], ref None, ref []);
          let done_, cur_vid, cur = Hashtbl.find segments p in
          Gcs.set_app gcs p
            {
              Haf_gcs.Daemon.on_view =
                (fun v ->
                  (match !cur_vid with
                  | Some vid -> done_ := (vid, List.rev !cur) :: !done_
                  | None -> ());
                  cur_vid := Some v.View.id;
                  cur := []);
              on_message = (fun ~group:_ ~sender:_ payload -> cur := payload :: !cur);
              on_p2p = (fun ~sender:_ _ -> ());
            })
        (Gcs.servers gcs);
      let rng = Haf_sim.Rng.create (seed + 43) in
      List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
      Engine.run ~until:3. engine;
      (* Chaos: traffic, one crash, one partition + heal. *)
      for i = 1 to 20 do
        let at = 3. +. Haf_sim.Rng.float rng 8. in
        let who = Haf_sim.Rng.int rng 4 in
        ignore
          (Engine.schedule_at engine ~time:at (fun () ->
               if Gcs.alive gcs who then Gcs.multicast gcs who "g" (Printf.sprintf "m%d" i)))
      done;
      let victim = Haf_sim.Rng.int rng 4 in
      ignore
        (Engine.schedule_at engine
           ~time:(4. +. Haf_sim.Rng.float rng 3.)
           (fun () -> Gcs.crash gcs victim));
      let side = Haf_sim.Rng.sample rng 2 [ 0; 1; 2; 3 ] in
      let other = List.filter (fun p -> not (List.mem p side)) [ 0; 1; 2; 3 ] in
      let cut = 6. +. Haf_sim.Rng.float rng 2. in
      ignore
        (Engine.schedule_at engine ~time:cut (fun () -> Gcs.partition gcs [ side; other ]));
      ignore (Engine.schedule_at engine ~time:(cut +. 3.) (fun () -> Gcs.heal gcs));
      Engine.run ~until:20. engine;
      (* Build per-proc transition lists: (vid, payloads-in-vid, next-vid). *)
      let transitions p =
        let done_, cur_vid, cur = Hashtbl.find segments p in
        let all =
          match !cur_vid with
          | Some vid -> (vid, List.rev !cur) :: !done_
          | None -> !done_
        in
        let ordered = List.rev all in
        let rec pair = function
          | (v1, msgs) :: ((v2, _) :: _ as rest) -> (v1, msgs, v2) :: pair rest
          | [ _ ] | [] -> []
        in
        pair ordered
      in
      let ok = ref true in
      let procs = [ 0; 1; 2; 3 ] in
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              if p < q then
                List.iter
                  (fun (v1, msgs_p, v2) ->
                    List.iter
                      (fun (w1, msgs_q, w2) ->
                        if
                          View.Id.equal v1 w1 && View.Id.equal v2 w2
                          && msgs_p <> msgs_q
                        then ok := false)
                      (transitions q))
                  (transitions p))
            procs)
        procs;
      !ok)

(* ------------------------------------------------------------------ *)
(* Unit-db self-checking: corruption detection and reconciliation      *)

module Unit_db = Haf_core.Unit_db

(* A random healthy database: sanctioned mutations only, so [sound]
   holds and the checksum matches its own recomputation. *)
let build_db rng =
  let db = Unit_db.create ~unit_id:"u00" () in
  let n = 1 + Haf_sim.Rng.int rng 6 in
  for i = 0 to n - 1 do
    let sid = Printf.sprintf "s%02d" i in
    ignore
      (Unit_db.add_session db ~session_id:sid
         ~client:(Haf_sim.Rng.int rng 4)
         ~started_at:(Haf_sim.Rng.float rng 50.));
    if Haf_sim.Rng.int rng 3 > 0 then begin
      let primary = Haf_sim.Rng.int rng 4 in
      let backups =
        List.filter (fun b -> b <> primary) [ (primary + 1) mod 4 ]
      in
      Unit_db.set_assignment db sid ~primary ~backups
    end;
    if Haf_sim.Rng.int rng 3 > 0 then
      Unit_db.set_propagated db sid
        {
          Unit_db.snap_ctx = i;
          snap_req_seq = Haf_sim.Rng.int rng 20;
          snap_applied = [];
          snap_at = Haf_sim.Rng.float rng 50.;
        };
    if Haf_sim.Rng.int rng 4 = 0 then Unit_db.end_session db sid
  done;
  db

(* Damage one record out-of-band, bypassing the sanctioned mutators —
   exactly what the chaos [corrupt-record] fault does. *)
let corrupt_record rng db =
  match Unit_db.sessions db with
  | [] -> false
  | sessions ->
      let s = List.nth sessions (Haf_sim.Rng.int rng (List.length sessions)) in
      (match Haf_sim.Rng.int rng 4 with
      | 0 ->
          (* Tombstone-flag flip: resurrect or fake-end. *)
          s.Unit_db.ended <- not s.Unit_db.ended
      | 1 ->
          s.Unit_db.primary <- None;
          s.Unit_db.backups <- []
      | 2 -> s.Unit_db.primary <- Some (-3)
      | _ ->
          s.Unit_db.backups <-
            (match s.Unit_db.primary with Some p -> [ p ] | None -> [ -1 ]));
      true

let prop_corruption_detected_and_reconciled =
  (* The self-stabilization contract at the unit-db level: (a) any
     out-of-band record damage is caught by the checksum cache or the
     structural audit; (b) the reset-and-rejoin path — fresh database,
     digest/delta merge from a healthy peer — converges back to the
     peer's shape, whatever the damage was. *)
  QCheck.Test.make ~name:"unit_db: corruption detected, reset+merge reconverges"
    ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Haf_sim.Rng.create (seed + 11) in
      let healthy = build_db rng in
      let replica = Unit_db.create ~unit_id:"u00" () in
      Unit_db.merge_records replica (Unit_db.export healthy);
      let before = Unit_db.checksum replica in
      if not (Unit_db.equal_shape healthy replica) then false
      else if not (corrupt_record rng replica) then true (* empty db: no-op *)
      else if Unit_db.checksum replica = before then
        (* The drawn mutation happened to be a no-op (e.g. stripping the
           assignment of a session that had none): nothing changed, so
           there is nothing to detect. *)
        Unit_db.equal_shape healthy replica
      else
        let detected =
          Unit_db.checksum replica <> before
          || Result.is_error (Unit_db.sound replica)
        in
        (* Reset-and-rejoin: throw the damaged copy away and merge the
           healthy peer's delta into an empty database. *)
        let fresh = Unit_db.create ~unit_id:"u00" () in
        Unit_db.merge_records fresh (Unit_db.export healthy);
        detected && Unit_db.equal_shape healthy fresh)

let prop_tombstone_survives_flag_corruption =
  (* A peer whose copy of an {e ended} session was corrupted back to
     live (flag flipped, content re-attached) must not resurrect it
     through the state exchange: the tombstone outranks any snapshot in
     [digest_snap_compare], so merging the corrupted record is a no-op. *)
  QCheck.Test.make ~name:"unit_db: tombstone wins over a flag-corrupted record"
    ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Haf_sim.Rng.create (seed + 13) in
      let db = Unit_db.create ~unit_id:"u00" () in
      ignore (Unit_db.add_session db ~session_id:"s00" ~client:1 ~started_at:1.);
      Unit_db.end_session db "s00";
      let zombie =
        {
          Unit_db.r_session_id = "s00";
          r_client = 1;
          r_unit_id = "u00";
          r_started_at = 1.;
          r_propagated =
            Some
              {
                Unit_db.snap_ctx = 99;
                snap_req_seq = Haf_sim.Rng.int rng 1000;
                snap_applied = [];
                snap_at = Haf_sim.Rng.float rng 100.;
              };
          r_primary = Some (Haf_sim.Rng.int rng 4);
          r_backups = [];
          r_ended = false;
        }
      in
      Unit_db.merge_records db [ zombie ];
      (not (Unit_db.live db "s00"))
      && Result.is_ok (Unit_db.sound db)
      &&
      match Unit_db.find db "s00" with
      | Some s -> s.Unit_db.ended && s.Unit_db.propagated = None
      | None -> false)

(* A propagated applied set damaged out-of-band, one case per kind of
   damage: [sound] must convict it, so the audit resets the replica
   instead of the next union silently absorbing the damage. *)
let sound_with_applied applied =
  let db = Unit_db.create ~unit_id:"u00" () in
  ignore (Unit_db.add_session db ~session_id:"s00" ~client:1 ~started_at:1.);
  Unit_db.set_propagated db "s00"
    { Unit_db.snap_ctx = 0; snap_req_seq = 10; snap_applied = [ (1, 10) ]; snap_at = 2. };
  (match Unit_db.find db "s00" with
  | Some ({ Unit_db.propagated = Some snap; _ } as s) ->
      s.Unit_db.propagated <- Some { snap with Unit_db.snap_applied = applied }
  | Some _ | None -> Alcotest.fail "session s00 lost its snapshot");
  Unit_db.sound db

let applied_case name applied ~ok =
  Alcotest.test_case ("sound: applied " ^ name) `Quick (fun () ->
      check Alcotest.bool
        (if ok then "passes" else "convicted")
        ok
        (Result.is_ok (sound_with_applied applied)))

let sound_applied_cases =
  [
    applied_case "canonical set passes" [ (1, 4); (6, 10) ] ~ok:true;
    applied_case "unsorted ranges" [ (6, 10); (1, 4) ] ~ok:false;
    applied_case "overlapping ranges" [ (1, 6); (5, 10) ] ~ok:false;
    applied_case "adjacent ranges" [ (1, 4); (5, 10) ] ~ok:false;
    applied_case "inverted range" [ (10, 1) ] ~ok:false;
    applied_case "negative seq" [ (-3, 10) ] ~ok:false;
  ]

(* ------------------------------------------------------------------ *)
(* Batched sequencing: total order identical to the unbatched path     *)

(* One run: 3 servers join a group, then bursts of multicasts — each
   burst from a single sender, bursts spaced far enough apart that the
   per-sender FIFO transport makes the sequencer's arrival order (and so
   the total order) independent of latency jitter.  With a positive
   batch window an entire burst rides one sequencer flush; the delivery
   order per member must still be exactly the unbatched one. *)
let deliveries_with ~window seed =
  let engine = Engine.create ~seed:(seed + 77) () in
  let cfg =
    {
      Config.default with
      heartbeat_interval = 0.05;
      suspect_timeout = 0.12;
      flush_timeout = 0.3;
      seq_batch_window = window;
    }
  in
  let gcs = Gcs.create ~gcs_config:cfg ~num_servers:3 engine in
  let delivered = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Gcs.set_app gcs p
        {
          Haf_gcs.Daemon.on_view = (fun _ -> ());
          on_message =
            (fun ~group:_ ~sender:_ payload ->
              let prev = Option.value (Hashtbl.find_opt delivered p) ~default:[] in
              Hashtbl.replace delivered p (payload :: prev));
          on_p2p = (fun ~sender:_ _ -> ());
        })
    (Gcs.servers gcs);
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  Engine.run engine ~until:1.5;
  let rng = Haf_sim.Rng.create (seed + 79) in
  let bursts = 3 + Haf_sim.Rng.int rng 6 in
  let label = ref 0 in
  for b = 0 to bursts - 1 do
    let sender = Haf_sim.Rng.int rng 3 in
    let size = 1 + Haf_sim.Rng.int rng 5 in
    let at = 1.5 +. (0.3 *. float_of_int b) in
    let msgs =
      List.init size (fun _ ->
          incr label;
          Printf.sprintf "m%03d" !label)
    in
    ignore
      (Engine.schedule_at engine ~time:at (fun () ->
           List.iter (fun m -> Gcs.multicast gcs sender "g" m) msgs))
  done;
  Engine.run engine ~until:(1.5 +. (0.3 *. float_of_int bursts) +. 2.);
  ( !label,
    List.map
      (fun p -> List.rev (Option.value (Hashtbl.find_opt delivered p) ~default:[]))
      (Gcs.servers gcs) )

let prop_batched_order_equals_unbatched =
  QCheck.Test.make
    ~name:"gcs: batched sequencing delivers the unbatched total order"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n_plain, plain = deliveries_with ~window:0. seed in
      let n_batched, batched = deliveries_with ~window:0.11 seed in
      (* every member delivered everything, in one agreed order, and the
         batched order is the unbatched one *)
      n_plain = n_batched
      && List.for_all (fun d -> List.length d = n_plain) plain
      && List.for_all (fun d -> d = List.nth plain 0) plain
      && batched = plain)

(* ------------------------------------------------------------------ *)
(* Unit-db: checksum cache and order-independent reconciliation         *)

(* The same sanctioned op stream, derived deterministically from a
   seed, applied to any database — so two databases fed the same seed
   have identical logical histories. *)
let apply_sanctioned seed db =
  let rng = Haf_sim.Rng.create seed in
  let nops = 30 + Haf_sim.Rng.int rng 40 in
  for _ = 1 to nops do
    let n = Haf_sim.Rng.int rng 20 in
    let sid = Printf.sprintf "s%02d" n in
    match Haf_sim.Rng.int rng 10 with
    | 0 | 1 | 2 ->
        (* Session identity is a function of the id: in the protocol one
           Start_session multicast defines (client, started_at) for a
           given session id, identically at every replica. *)
        ignore
          (Unit_db.add_session db ~session_id:sid ~client:(n mod 5)
             ~started_at:(float_of_int n))
    | 3 | 4 ->
        let primary = Haf_sim.Rng.int rng 5 in
        Unit_db.set_assignment db sid ~primary
          ~backups:(List.filter (fun b -> b <> primary) [ (primary + 1) mod 5 ])
    | 5 | 6 ->
        Unit_db.set_propagated db sid
          {
            Unit_db.snap_ctx = Haf_sim.Rng.int rng 1000;
            snap_req_seq = Haf_sim.Rng.int rng 50;
            snap_applied = [];
            snap_at = Haf_sim.Rng.float rng 100.;
          }
    | 7 -> Unit_db.end_session db sid
    | 8 -> Unit_db.remove_session db sid
    | _ -> ()
  done

let prop_cached_checksum =
  (* The incremental cache must equal the full recompute after any
     sanctioned history, and no sanctioned history may break the
     structural invariants [sound] checks. *)
  QCheck.Test.make
    ~name:"unit_db: cached checksum == full checksum on random op sequences"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let db = Unit_db.create ~unit_id:"u00" () in
      apply_sanctioned seed db;
      Unit_db.cached_checksum db = Unit_db.checksum db
      && Result.is_ok (Unit_db.sound db)
      && Unit_db.size db = List.length (Unit_db.sessions db))

let prop_shuffled_merge_fixed_point =
  (* Two divergent replicas' records, merged in a random order, reach
     exactly the fixed point the in-order merge reaches — and a
     tombstone on either side stays final. *)
  QCheck.Test.make
    ~name:"unit_db: shuffled merge reaches the in-order fixed point"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Haf_sim.Rng.create (seed + 7) in
      let a = Unit_db.create ~unit_id:"u00" () in
      let b = Unit_db.create ~unit_id:"u00" () in
      apply_sanctioned (seed * 2) a;
      apply_sanctioned ((seed * 2) + 1) b;
      let ra = Unit_db.export a and rb = Unit_db.export b in
      let base = Unit_db.create ~unit_id:"u00" () in
      Unit_db.merge_records base ra;
      Unit_db.merge_records base rb;
      let shuffled = Unit_db.create ~unit_id:"u00" () in
      Unit_db.merge_records shuffled (Haf_sim.Rng.shuffle rng (ra @ rb));
      Unit_db.equal_shape base shuffled
      && Unit_db.checksum base = Unit_db.checksum shuffled
      && Unit_db.cached_checksum shuffled = Unit_db.checksum shuffled
      && List.for_all
           (fun (r : int Unit_db.record) ->
             (not r.Unit_db.r_ended)
             || not (Unit_db.live shuffled r.Unit_db.r_session_id))
           (ra @ rb))

let suite =
  [
    ( "gcs.units",
      [
        Alcotest.test_case "view id order" `Quick test_view_id_order;
        Alcotest.test_case "view normalization" `Quick test_view_make_normalizes;
        Alcotest.test_case "empty view raises" `Quick test_view_make_empty_raises;
        Alcotest.test_case "singleton view" `Quick test_view_singleton;
        Alcotest.test_case "config validation" `Quick test_config_validate;
        Alcotest.test_case "fd lifecycle" `Quick test_fd_lifecycle;
        Alcotest.test_case "fd self/unknown" `Quick test_fd_self_and_unknown;
        Alcotest.test_case "fd unmonitor" `Quick test_fd_unmonitor;
        Alcotest.test_case "fd sweep idempotent" `Quick test_fd_sweep_idempotent;
        Alcotest.test_case "latency models" `Quick test_latency_positive_and_mean;
        Alcotest.test_case "trace" `Quick test_trace_capture_and_filter;
        Alcotest.test_case "trace: disabled sink skips formatting" `Quick
          test_trace_disabled_skips_formatting;
        Alcotest.test_case "wire: validate accepts and rejects" `Quick test_wire_validate;
        QCheck_alcotest.to_alcotest prop_uid_set_oracle;
        QCheck_alcotest.to_alcotest prop_adverts_oracle;
        Alcotest.test_case "on_view leaves and joins groups mid-sweep" `Quick
          test_on_view_changes_groups_mid_sweep;
      ] );
    ( "gcs.adversarial",
      [
        Alcotest.test_case "partition during flush" `Quick test_partition_during_flush;
        Alcotest.test_case "cascading crashes" `Quick test_cascading_crashes;
        Alcotest.test_case "view epochs monotonic" `Quick test_view_epochs_monotonic;
        Alcotest.test_case "merge livelock regression" `Quick test_merge_livelock_regression;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_random_partition_schedule; prop_virtual_synchrony_direct ] );
    ( "gcs.batched_order",
      List.map QCheck_alcotest.to_alcotest
        [ prop_batched_order_equals_unbatched ] );
    ( "gcs.unit_db.self_check",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_corruption_detected_and_reconciled;
          prop_tombstone_survives_flag_corruption;
          prop_cached_checksum;
          prop_shuffled_merge_fixed_point;
        ]
      @ sound_applied_cases );
  ]
