(* Seqset against the representation it replaced, and the size claim it
   exists for.

   The oracle is a sorted, deduplicated [int list] — exactly what a
   session's applied set used to be.  Random [add]/[union] histories
   run on both; after every step [mem], [elements] and [diff] must agree
   with the oracle and every result must be canonical. *)

module Seqset = Haf_sim.Seqset
module Unit_db = Haf_core.Unit_db
module Fw = Haf_core.Framework.Make (Haf_services.Synthetic)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)

let o_add x o = List.sort_uniq Int.compare (x :: o)

let o_union a b = List.sort_uniq Int.compare (a @ b)

let o_diff a b = List.filter (fun x -> not (List.mem x b)) a

let of_oracle o = List.fold_left (fun s x -> Seqset.add x s) Seqset.empty o

(* Small values so that random histories hit adjacency, one-seq holes
   and overlaps often. *)
let max_seq = 40

type op = Add of int | Union of int list

let op_to_string = function
  | Add x -> Printf.sprintf "add %d" x
  | Union xs -> Printf.sprintf "union [%s]" (String.concat ";" (List.map string_of_int xs))

let op_gen =
  let open QCheck.Gen in
  let seq = int_range 0 max_seq in
  frequency
    [ (4, map (fun x -> Add x) seq); (1, map (fun xs -> Union xs) (list_size (int_range 0 12) seq)) ]

let canonical s = Result.is_ok (Seqset.check s)

let agrees s o =
  canonical s
  && Seqset.elements s = o
  && List.for_all
       (fun x -> Seqset.mem x s = List.mem x o)
       (List.init (max_seq + 3) (fun x -> x - 1))

let prop_equivalence =
  QCheck.Test.make ~count:1000
    ~name:"seqset: add/union/mem/elements/diff agree with the sorted-list oracle"
    QCheck.(
      make
        ~print:(fun (ops, probe) ->
          String.concat "; " (List.map op_to_string ops)
          ^ " | diff probe " ^ op_to_string (Union probe))
        ~shrink:(Shrink.pair Shrink.list Shrink.list)
        Gen.(pair (list_size (int_range 0 40) op_gen) (list_size (int_range 0 15) (int_range 0 max_seq))))
    (fun (ops, probe) ->
      let probe_o = List.sort_uniq Int.compare probe in
      let probe_s = of_oracle probe in
      let step (s, o, ok) op =
        let s, o =
          match op with
          | Add x -> (Seqset.add x s, o_add x o)
          | Union xs ->
              let other = List.sort_uniq Int.compare xs in
              (Seqset.union s (of_oracle other), o_union o other)
        in
        let d = Seqset.diff s probe_s and d' = Seqset.diff probe_s s in
        ( s,
          o,
          ok && agrees s o
          && agrees d (o_diff o probe_o)
          && agrees d' (o_diff probe_o o) )
      in
      let _, _, ok = List.fold_left step (Seqset.empty, [], true) ops in
      ok)

(* ------------------------------------------------------------------ *)
(* Directed cases                                                      *)

let ranges = Alcotest.(list (pair int int))

let test_add_coalesces () =
  check ranges "in order: one range" [ (1, 5) ] (of_oracle [ 1; 2; 3; 4; 5 ]);
  check ranges "a hole stays a hole" [ (1, 4); (6, 10) ]
    (of_oracle [ 1; 2; 3; 4; 6; 7; 8; 9; 10 ]);
  check ranges "filling a one-seq hole fuses the neighbours" [ (1, 10) ]
    (Seqset.add 5 [ (1, 4); (6, 10) ]);
  check ranges "prepend below" [ (0, 0); (2, 3) ] (Seqset.add 0 [ (2, 3) ]);
  check ranges "extend downward" [ (1, 3) ] (Seqset.add 1 [ (2, 3) ]);
  check ranges "member: no change" [ (1, 4); (6, 10) ] (Seqset.add 7 [ (1, 4); (6, 10) ])

let test_union_diff () =
  check ranges "union bridges" [ (1, 12) ] (Seqset.union [ (1, 4); (9, 12) ] [ (5, 8) ]);
  check ranges "union swallows" [ (0, 20) ]
    (Seqset.union [ (1, 2); (4, 5); (7, 9) ] [ (0, 20) ]);
  check ranges "diff punches a hole" [ (1, 4); (6, 10) ] (Seqset.diff [ (1, 10) ] [ (5, 5) ]);
  check ranges "diff of a superset is empty" [] (Seqset.diff [ (1, 10) ] [ (1, 12) ]);
  check ranges "hole inside a range" [ (5, 5) ]
    (Seqset.diff [ (1, 10) ] [ (1, 4); (6, 10) ])

let test_check () =
  let bad s = Result.is_error (Seqset.check s) in
  check Alcotest.bool "canonical" false (bad [ (0, 3); (5, 5); (7, 9) ]);
  check Alcotest.bool "empty" false (bad []);
  check Alcotest.bool "unsorted" true (bad [ (6, 8); (1, 3) ]);
  check Alcotest.bool "overlapping" true (bad [ (1, 5); (4, 8) ]);
  check Alcotest.bool "adjacent" true (bad [ (1, 3); (4, 8) ]);
  check Alcotest.bool "inverted" true (bad [ (5, 3) ]);
  check Alcotest.bool "negative" true (bad [ (-2, 3) ])

(* ------------------------------------------------------------------ *)
(* Encoded size: O(ranges), not O(requests ever applied)               *)

(* The two encodings a session's applied set rides on every
   propagation: the [Propagate_batch] multicast and the [P_ctx] WAL
   record.  Both must stay flat in the session's age; one int per
   applied seq would put tens of KB between the two sizes below. *)
let test_encoding_size_independent () =
  let encoded n =
    let applied = of_oracle (List.init n (fun i -> i + 1)) in
    let snap =
      {
        Unit_db.snap_ctx = Haf_services.Synthetic.initial_context ~unit_id:"u00";
        snap_req_seq = n;
        snap_applied = applied;
        snap_at = 12.5;
      }
    in
    ( String.length (Fw.encode_group (Fw.Propagate_batch { snaps = [ ("s0001", snap) ] })),
      String.length
        (Fw.encode_persisted (Fw.P_ctx { unit_id = "u00"; session_id = "s0001"; snap })) )
  in
  let batch_small, ctx_small = encoded 100 and batch_big, ctx_big = encoded 10_000 in
  check Alcotest.bool
    (Printf.sprintf "Propagate_batch %d vs %d bytes" batch_small batch_big)
    true
    (abs (batch_big - batch_small) <= 8);
  check Alcotest.bool
    (Printf.sprintf "P_ctx %d vs %d bytes" ctx_small ctx_big)
    true
    (abs (ctx_big - ctx_small) <= 8)

let suite =
  [
    ( "core.seqset",
      [
        Alcotest.test_case "add coalesces" `Quick test_add_coalesces;
        Alcotest.test_case "union and diff" `Quick test_union_diff;
        Alcotest.test_case "check convicts non-canonical" `Quick test_check;
        Alcotest.test_case "encoded size independent of history" `Quick
          test_encoding_size_independent;
        QCheck_alcotest.to_alcotest prop_equivalence;
      ] );
  ]
