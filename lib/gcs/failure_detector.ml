module Imap = Map.Make (Int)

type proc = int

type peer = { mutable last : float; mutable suspect : bool }

type t = {
  me : proc;
  timeout : float;
  mutable peers : peer Imap.t;
}

let create ~me ~suspect_timeout = { me; timeout = suspect_timeout; peers = Imap.empty }

let monitor t p ~now =
  if p <> t.me && not (Imap.mem p t.peers) then
    t.peers <- Imap.add p { last = now; suspect = false } t.peers

let unmonitor t p = t.peers <- Imap.remove p t.peers

let monitored t = List.map fst (Imap.bindings t.peers)

let is_monitored t p = Imap.mem p t.peers

let heard_from t p ~now =
  match Imap.find_opt p t.peers with
  | Some peer ->
      peer.last <- now;
      peer.suspect <- false
  | None -> ()

let sweep t ~now =
  Imap.fold
    (fun p peer acc ->
      if (not peer.suspect) && now -. peer.last > t.timeout then begin
        peer.suspect <- true;
        p :: acc
      end
      else acc)
    t.peers []
  |> List.rev

let suspected t p =
  match Imap.find_opt p t.peers with
  | Some peer -> peer.suspect
  | None -> false

let suspects t =
  Imap.fold
    (fun p peer acc -> if peer.suspect then p :: acc else acc)
    t.peers []
  |> List.rev

let reachable t p =
  match Imap.find_opt p t.peers with
  | Some peer -> not peer.suspect
  | None -> false

