type t = (int * int) list

let empty = []

let rec mem x = function
  | [] -> false
  | (lo, hi) :: rest -> x >= lo && (x <= hi || mem x rest)

(* Seqs arrive almost always at [hi + 1] of the last range, which this
   extends in place of the tail; a seq filling a one-seq hole fuses its
   two neighbours. *)
let rec add x s =
  match s with
  | [] -> [ (x, x) ]
  | ((lo, hi) as r) :: rest ->
      if x < lo - 1 then (x, x) :: s
      else if x = lo - 1 then (x, hi) :: rest
      else if x <= hi then s
      else if x = hi + 1 then
        match rest with
        | (lo', hi') :: rest' when lo' = x + 1 -> (lo, hi') :: rest'
        | _ -> (lo, x) :: rest
      else r :: add x rest

(* Push a range onto a reversed accumulator, coalescing it with the top
   when they overlap or touch.  Ranges must arrive in ascending [lo]. *)
let push acc ((lo, hi) as r) =
  match acc with
  | (plo, phi) :: acc' when lo <= phi + 1 -> (plo, Int.max phi hi) :: acc'
  | _ -> r :: acc

let union a b =
  match (a, b) with
  | [], s | s, [] -> s
  | _ ->
      let rec go acc a b =
        match (a, b) with
        | [], rest | rest, [] -> List.rev (List.fold_left push acc rest)
        | ((la, _) as x) :: a', ((lb, _) as y) :: b' ->
            if la <= lb then go (push acc x) a' b else go (push acc y) a b'
      in
      go [] a b

let diff a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | ((alo, ahi) as r) :: a', (blo, bhi) :: b' ->
        if bhi < alo then go acc a b'
        else if ahi < blo then go (r :: acc) a' b
        else
          let acc = if alo < blo then (alo, blo - 1) :: acc else acc in
          if ahi > bhi then go acc ((bhi + 1, ahi) :: a') b' else go acc a' b
  in
  match b with [] -> a | _ -> go [] a b

let elements s =
  let rec down lo x acc = if x < lo then acc else down lo (x - 1) (x :: acc) in
  List.fold_left (fun acc (lo, hi) -> down lo hi acc) [] (List.rev s)

let defect what lo hi = Error (Printf.sprintf "%s range %d..%d" what lo hi)

(* Allocation-free when the set is canonical: the unit-db audit runs
   this over every propagated snapshot. *)
let check s =
  let rec go plo phi = function
    | [] -> Ok ()
    | (lo, hi) :: rest ->
        if lo < 0 then defect "negative" lo hi
        else if hi < lo then defect "inverted" lo hi
        else if lo < plo then defect "out-of-order" lo hi
        else if lo <= phi then defect "overlapping" lo hi
        else if lo = phi + 1 then defect "adjacent" lo hi
        else go lo hi rest
  in
  (* Sentinels below any valid seq, so the first range passes the
     ordering tests. *)
  go (-1) (-2) s
