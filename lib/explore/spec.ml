module Events = Haf_core.Events

(* Abstract centralized reference model of the session service (the
   paper's Section 3 specification, collapsed to what is observable in
   the event stream): a session is requested, granted at most while it
   is live, served, and ended exactly once — after which no member may
   ever again grant it, take it over, assume primaryship for it, or
   propagate context on its behalf.  The concrete system may lag or
   fail over, but it must never act on a session whose End has been
   delivered in total order: that is the zombie-resurrection class of
   bug the state exchange can reintroduce. *)

type phase = Requested | Active | Ended

(* (server, subsystem), ordered by server, then subsystem. *)
module Conviction_map = Map.Make (struct
  type t = int * string

  let compare (s1, g1) (s2, g2) =
    match Int.compare s1 s2 with 0 -> String.compare g1 g2 | c -> c
end)

type t = {
  sessions : (string, phase) Hashtbl.t;
  mutable convicted : int Conviction_map.t;
      (* (server, subsystem) -> audit convictions not yet answered by a
         reset.  The reset-and-rejoin lifecycle: a component may only
         reset after its own audit convicted it, one reset per
         conviction — an unprovoked reset would silently discard state
         the group believes it holds. *)
  mutable violations_rev : (float * string) list;
}

let create () =
  {
    sessions = Hashtbl.create 16;
    convicted = Conviction_map.empty;
    violations_rev = [];
  }

let flag t ~now fmt =
  Printf.ksprintf
    (fun msg -> t.violations_rev <- (now, msg) :: t.violations_rev)
    fmt

let phase_of t sid = Hashtbl.find_opt t.sessions sid

let on_event t ~now (ev : Events.t) =
  match ev with
  | Events.Session_requested { session_id; _ } -> (
      match phase_of t session_id with
      | None -> Hashtbl.replace t.sessions session_id Requested
      | Some _ -> flag t ~now "spec: session %s requested twice" session_id)
  | Events.Session_granted { session_id; primary; _ } -> (
      match phase_of t session_id with
      | Some Requested | Some Active ->
          Hashtbl.replace t.sessions session_id Active
      | Some Ended ->
          flag t ~now "spec: s%d granted session %s after its End (zombie)"
            primary session_id
      | None ->
          flag t ~now "spec: s%d granted session %s that was never requested"
            primary session_id)
  | Events.Session_ended { session_id } -> (
      match phase_of t session_id with
      | Some (Requested | Active) -> Hashtbl.replace t.sessions session_id Ended
      | Some Ended -> Hashtbl.replace t.sessions session_id Ended
      | None ->
          flag t ~now "spec: session %s ended but was never requested"
            session_id)
  | Events.Role_assumed { server; session_id; role = Events.Primary } -> (
      match phase_of t session_id with
      | Some Ended ->
          flag t ~now
            "spec: s%d assumed primary for session %s after its End (zombie)"
            server session_id
      | Some _ -> ()
      | None ->
          flag t ~now
            "spec: s%d assumed primary for session %s that was never requested"
            server session_id)
  | Events.Takeover { server; session_id; _ } -> (
      match phase_of t session_id with
      | Some Ended ->
          flag t ~now "spec: s%d took over session %s after its End (zombie)"
            server session_id
      | Some _ | None -> ())
  | Events.Propagated { server; session_id; _ } -> (
      match phase_of t session_id with
      | Some Ended ->
          flag t ~now
            "spec: s%d propagated context for session %s after its End (zombie)"
            server session_id
      | Some _ | None -> ())
  | Events.Audit_failed { server; subsystem; _ } ->
      let key = (server, subsystem) in
      t.convicted <-
        Conviction_map.add key
          (1 + Option.value (Conviction_map.find_opt key t.convicted) ~default:0)
          t.convicted
  | Events.Server_reset { server; subsystem } -> (
      let key = (server, subsystem) in
      match Conviction_map.find_opt key t.convicted with
      | Some n when n > 0 -> t.convicted <- Conviction_map.add key (n - 1) t.convicted
      | Some _ | None ->
          flag t ~now
            "spec: s%d reset %s without a preceding audit conviction" server
            subsystem)
  | Events.Server_crashed { server } ->
      (* A crash wipes the component's in-memory state, pending audit
         convictions included; its next life starts unconvicted. *)
      t.convicted <-
        Conviction_map.mapi (fun (s, _) n -> if s = server then 0 else n) t.convicted
  | Events.Request_sent _ | Events.Request_applied _ | Events.Response_sent _
  | Events.Response_received _
  | Events.Role_assumed _ (* Backup roles carry no post-End obligation:
                             a backup context may linger until the
                             tombstone's view change cleans it up. *)
  | Events.Role_dropped _ | Events.View_noted _
  | Events.Server_restarted _ | Events.Exchange_sent _
  | Events.Store_recovered _ ->
      ()

let attach t sink = Events.subscribe sink (fun ~now ev -> on_event t ~now ev)

let create_attached sink =
  let t = create () in
  attach t sink;
  t

let violations t = List.rev t.violations_rev

let violation_count t = List.length t.violations_rev

let first_violation t =
  match List.rev t.violations_rev with [] -> None | v :: _ -> Some v
