module Imap = Map.Make (Int)
module Smap = Map.Make (String)

type proc = int

type t = Wire.advert Smap.t Imap.t

let empty = Imap.empty

let by_group advs =
  List.fold_left
    (fun m (a : Wire.advert) ->
      if Smap.mem a.adv_group m then m else Smap.add a.adv_group a m)
    Smap.empty advs

let record p advs t = Imap.add p (by_group advs) t

let find p group t = Option.bind (Imap.find_opt p t) (Smap.find_opt group)

let advertisers group t =
  Imap.fold (fun p advs acc -> if Smap.mem group advs then p :: acc else acc) t []
  |> List.rev

let forget p group t =
  match Imap.find_opt p t with
  | Some advs -> Imap.add p (Smap.remove group advs) t
  | None -> t
