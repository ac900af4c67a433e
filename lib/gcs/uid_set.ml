module Seqset = Haf_sim.Seqset

(* Keyed by the uid itself, of which only [origin] and [incarnation]
   count, so a lookup allocates no key. *)
module Tbl = Hashtbl.Make (struct
  type t = Wire.uid

  let equal (a : t) (b : t) =
    Int.equal a.origin b.origin && Int.equal a.incarnation b.incarnation

  let hash (u : t) = u.origin + (u.incarnation * 65599)
end)

(* [below] ∪ [lo..hi]; every range of [below] ends before [lo - 1]. *)
type serials = { mutable lo : int; mutable hi : int; mutable below : Seqset.t }

type t = serials Tbl.t

let create () = Tbl.create 8

let[@hot] holds s x = (x >= s.lo && x <= s.hi) || Seqset.mem x s.below

let[@hot] mem t (u : Wire.uid) =
  match Tbl.find t u with
  | s -> holds s u.serial
  | exception Not_found -> false

let to_set s = Seqset.union s.below [ (s.lo, s.hi) ]

(* Out-of-order serial: rebuild through [Seqset.add], then split the top
   range off again. *)
let insert s x =
  match List.rev (Seqset.add x (to_set s)) with
  | (lo, hi) :: rest ->
      s.lo <- lo;
      s.hi <- hi;
      s.below <- List.rev rest
  | [] -> ()

let[@hot] add t (u : Wire.uid) =
  match Tbl.find t u with
  | s ->
      if u.serial = s.hi + 1 then s.hi <- u.serial
      else if not (holds s u.serial) then insert s u.serial
  | exception Not_found -> Tbl.add t u { lo = u.serial; hi = u.serial; below = Seqset.empty }

let compare_source ((o1, i1), _) ((o2, i2), _) =
  match Int.compare o1 o2 with 0 -> Int.compare i1 i2 | c -> c

(* Bucket order is discarded by the sort. *)
let ranges t =
  Tbl.fold (fun (u : Wire.uid) s acc -> ((u.origin, u.incarnation), to_set s) :: acc) t []
  |> List.sort compare_source
