(* 65,536 distinct keys: the table outgrows one core's L2 cache, so part
   of the work waits on memory, as the simulation's does. *)
let keys = Array.init 65_536 (fun i -> string_of_int (i * 7919))

let work () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 199_999 do
    let k = keys.((i * 40_503) land 0xFFFF) in
    match Hashtbl.find_opt h k with Some v -> acc := !acc + v | None -> Hashtbl.replace h k i
  done;
  !acc

let reference_s = 0.03

let time ~clock =
  let c0 = clock () in
  ignore (Sys.opaque_identity (work ()));
  clock () -. c0
