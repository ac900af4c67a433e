module Engine = Haf_sim.Engine
module Rng = Haf_sim.Rng
module Network = Haf_net.Network
module Transport = Haf_net.Transport
module Wire = Haf_gcs.Wire
module Gcs = Haf_gcs.Gcs
module Events = Haf_core.Events

type timing = { ns : float; words : float; samples : int }

let reps = 5

let median_of s = Option.value (Samples.median s) ~default:0.

let measure ~clock ~ops f =
  let ns = Samples.create () and ws = Samples.create () in
  for _ = 1 to reps do
    let w0 = Gc.minor_words () in
    let c0 = clock () in
    f ();
    let c1 = clock () in
    let w1 = Gc.minor_words () in
    Samples.add ns ((c1 -. c0) *. 1e9 /. float_of_int ops);
    Samples.add ws ((w1 -. w0) /. float_of_int ops)
  done;
  { ns = median_of ns; words = median_of ws; samples = reps * ops }

(* Small inputs are repeated until one repetition holds about [target]
   operations, so the clock's resolution stays far below the interval. *)
let rounds ~target n = Int.max 1 (target / Int.max 1 n)

let schedule_run ~clock ~seed ~mix ~depth =
  let rng = Rng.create seed in
  let total = List.fold_left (fun acc (w, _, _) -> acc +. w) 0. mix in
  let draw () =
    let rec pick x = function
      | [ (_, lo, hi) ] -> lo +. Rng.float rng (hi -. lo)
      | (w, lo, hi) :: rest -> if x < w then lo +. Rng.float rng (hi -. lo) else pick (x -. w) rest
      | [] -> 0.
    in
    pick (Rng.float rng total) mix
  in
  let delays = Array.init depth (fun _ -> draw ()) in
  let fired = ref 0 in
  let act () = incr fired in
  let t =
    measure ~clock ~ops:depth (fun () ->
        let e = Engine.create ~seed () in
        Array.iter (fun d -> ignore (Engine.schedule e ~delay:d act)) delays;
        Engine.run e)
  in
  assert (!fired = reps * depth);
  t

let transport_send_deliver ~clock ~bytes =
  let payload = String.make (Int.max 1 bytes) 'p' in
  let chunks = 40 and chunk = 64 in
  let got = ref 0 in
  let t =
    measure ~clock ~ops:(chunks * chunk) (fun () ->
        let e = Engine.create () in
        let net = Network.create e Network.default_config in
        let a = Network.add_node net and b = Network.add_node net in
        let tr = Transport.create (Network.substrate net) in
        Transport.attach tr a (fun ~src:_ _ -> ());
        Transport.attach tr b (fun ~src:_ _ -> incr got);
        for _ = 1 to chunks do
          for _ = 1 to chunk do
            Transport.send tr ~src:a ~dst:b payload
          done;
          Engine.run ~until:(Engine.now e +. 0.01) e
        done)
  in
  assert (!got = reps * chunks * chunk);
  t

let codec ~clock ~encode ~decode msg =
  let s = encode msg in
  let n = rounds ~target:20_000 (String.length s / 64) in
  let enc = measure ~clock ~ops:n (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (encode msg)) done) in
  let dec = measure ~clock ~ops:n (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (decode s)) done) in
  (enc, dec, String.length s)

let wire_frames ~group ~payload ~batch =
  let vid = Haf_gcs.View.Id.initial 0 in
  let entry serial = { Wire.uid = { origin = 1; incarnation = 1; serial }; orig = 1; payload } in
  [
    ("data", Wire.Data { group; vid; seq = 1; entry = entry 1 });
    ( "data_batch",
      Wire.Data_batch
        { group; vid; entries = List.init (Int.max 1 batch) (fun i -> (i + 1, entry (i + 1))) } );
  ]

let gcs_multicast ~clock ~gcs_config ~size ~payload =
  let e = Engine.create ~seed:size () in
  let g = Gcs.create ~gcs_config ~num_servers:size e in
  let delivered = ref 0 in
  List.iter
    (fun p ->
      Gcs.set_app g p
        {
          Haf_gcs.Daemon.no_callbacks with
          on_message = (fun ~group:_ ~sender:_ _ -> incr delivered);
        };
      Gcs.join g p "bench")
    (Gcs.servers g);
  Engine.run ~until:3. e;
  let n = 400 in
  let t =
    measure ~clock ~ops:n (fun () ->
        for _ = 1 to n do
          Gcs.multicast g 0 "bench" payload
        done;
        Engine.run ~until:(Engine.now e +. 0.5) e)
  in
  assert (!delivered = reps * n * size);
  t

let monitor_observe ~clock ~n_servers ~n_nodes ~policy ~gcs_config events =
  measure ~clock ~ops:(Int.max 1 (Array.length events)) (fun () ->
      let e = Engine.create () in
      let net = Network.create e Network.default_config in
      for _ = 1 to n_nodes do
        ignore (Network.add_node net)
      done;
      let sink = Events.make_sink ~retain:false () in
      let _monitor =
        Haf_monitor.Monitor.create ~network:net
          ~servers:(List.init n_servers (fun p -> p))
          ~policy ~gcs:gcs_config ~events:sink ()
      in
      Array.iter (fun (now, ev) -> Events.emit sink ~now ev) events)

let unit_db_add ~clock ~unit_id sids =
  let k = rounds ~target:20_000 (Array.length sids) in
  measure ~clock ~ops:(k * Int.max 1 (Array.length sids)) (fun () ->
      for _ = 1 to k do
        let db = Haf_core.Unit_db.create ~unit_id () in
        Array.iter
          (fun session_id ->
            ignore (Haf_core.Unit_db.add_session db ~session_id ~client:0 ~started_at:0.))
          sids
      done)

let unit_db_merge ~clock ~unit_id records =
  let n = List.length records in
  let k = rounds ~target:20_000 n in
  measure ~clock ~ops:(k * Int.max 1 n) (fun () ->
      for _ = 1 to k do
        let db = Haf_core.Unit_db.create ~unit_id () in
        Haf_core.Unit_db.merge_records db records
      done)

let selection_assign ~clock ~n_backups ~members prevs =
  let n = List.length prevs in
  let k = rounds ~target:20_000 n in
  measure ~clock ~ops:(k * Int.max 1 n) (fun () ->
      for _ = 1 to k do
        ignore
          (Sys.opaque_identity
             (Haf_core.Selection.assign ~n_backups ~members ~rebalance:true prevs))
      done)

let store_log_sync ~clock ~record ~wal_length =
  let n = Int.max 1 wal_length in
  let k = rounds ~target:4_096 n in
  measure ~clock ~ops:(k * n) (fun () ->
      for _ = 1 to k do
        let e = Engine.create () in
        let st = Haf_store.Store.create ~name:"bench" Haf_store.Store.default_config e in
        for i = 1 to n do
          Haf_store.Store.log st record;
          if i mod 16 = 0 then Haf_store.Store.sync st (fun ~ok:_ -> ())
        done;
        Haf_store.Store.sync st (fun ~ok:_ -> ());
        Engine.run ~until:1. e
      done)
