module Events = Haf_core.Events

let in_flight_window = 5.

type t = {
  horizon : float;
  cutoff : float;
  req_at : (string, float) Hashtbl.t;  (* first ask, removed on grant *)
  grant_at : (string, float) Hashtbl.t;
  grants : Samples.t;
  mutable first_session : string option;
  upd_at : (string * int, float) Hashtbl.t;  (* sent, not yet applied *)
  backup_held : (string, (int * int) list) Hashtbl.t;
      (* session -> (backup server, seq) of each pending update a backup
         applied before any primary did *)
  updates : Samples.t;
  mutable updates_sent : int;
  mutable applied : int;
  mutable responses : int;
  crit_pending : (string * int, float) Hashtbl.t;  (* sent, not yet received *)
  mutable crit_sent : int;
  mutable sessions_asked : int;
  serving : (string, int) Hashtbl.t;  (* session -> server it last heard from *)
  gap_open : (string, float * int) Hashtbl.t;  (* session -> (crash time, server) *)
  restarted_at : (int, float) Hashtbl.t;
  gaps : Samples.t;
  mutable propagations : int;
  mutable crash_takeovers : int;
  mutable live_takeovers : int;
  mutable exchange_msgs : int;
  mutable exchange_bytes : int;
  digest_records : Samples.t;
  delta_records : Samples.t;
  mutable recovered_wal : int;
  mutable record_max : int;
  mutable recorded : (float * Events.t) list;
  mutable n_recorded : int;
  mutable pending : (unit -> int) option;
  mutable pending_peak : int;
}

let create ~horizon =
  {
    horizon;
    cutoff = horizon -. in_flight_window;
    req_at = Hashtbl.create 1024;
    grant_at = Hashtbl.create 1024;
    grants = Samples.create ();
    first_session = None;
    upd_at = Hashtbl.create 1024;
    backup_held = Hashtbl.create 64;
    updates = Samples.create ();
    updates_sent = 0;
    applied = 0;
    responses = 0;
    crit_pending = Hashtbl.create 1024;
    crit_sent = 0;
    sessions_asked = 0;
    serving = Hashtbl.create 1024;
    gap_open = Hashtbl.create 64;
    restarted_at = Hashtbl.create 8;
    gaps = Samples.create ();
    propagations = 0;
    crash_takeovers = 0;
    live_takeovers = 0;
    exchange_msgs = 0;
    exchange_bytes = 0;
    digest_records = Samples.create ();
    delta_records = Samples.create ();
    recovered_wal = 0;
    record_max = 0;
    recorded = [];
    n_recorded = 0;
    pending = None;
    pending_peak = 0;
  }

(* A crashed server's sessions wait for a response from anyone else, or
   from the same server id once it has come back. *)
let close_gap t ~now ~sid ~from =
  match Hashtbl.find_opt t.gap_open sid with
  | Some (t0, dead) ->
      let back =
        match Hashtbl.find_opt t.restarted_at dead with
        | Some r -> r > t0
        | None -> false
      in
      if from <> dead || back then begin
        Hashtbl.remove t.gap_open sid;
        Samples.add t.gaps (now -. t0)
      end
  | None -> ()

let update_reached_primary t ~now key =
  match Hashtbl.find_opt t.upd_at key with
  | Some t0 ->
      Hashtbl.remove t.upd_at key;
      Samples.add t.updates (now -. t0)
  | None -> ()

(* Forget the backups' copies of [sid]'s updates that have reached a
   primary, so the table only holds updates still in flight. *)
let prune_held t sid =
  match Hashtbl.find_opt t.backup_held sid with
  | Some held -> (
      match List.filter (fun (_, seq) -> Hashtbl.mem t.upd_at (sid, seq)) held with
      | [] -> Hashtbl.remove t.backup_held sid
      | rest -> Hashtbl.replace t.backup_held sid rest)
  | None -> ()

let ops t = Hashtbl.length t.grant_at + t.applied + t.responses

let observe t ~now (ev : Events.t) =
  if t.n_recorded < t.record_max then begin
    t.recorded <- (now, ev) :: t.recorded;
    t.n_recorded <- t.n_recorded + 1
  end;
  (match t.pending with
  | Some f ->
      let p = f () in
      if p > t.pending_peak then t.pending_peak <- p
  | None -> ());
  match ev with
  | Session_requested { session_id; _ } ->
      if
        (not (Hashtbl.mem t.grant_at session_id))
        && not (Hashtbl.mem t.req_at session_id)
      then begin
        Hashtbl.replace t.req_at session_id now;
        if now < t.cutoff then t.sessions_asked <- t.sessions_asked + 1
      end
  | Session_granted { session_id; primary; _ } -> (
      if not (Hashtbl.mem t.serving session_id) then
        Hashtbl.replace t.serving session_id primary;
      match Hashtbl.find_opt t.req_at session_id with
      | Some t0 ->
          Hashtbl.remove t.req_at session_id;
          Hashtbl.replace t.grant_at session_id now;
          Samples.add t.grants (now -. t0);
          if t.first_session = None then t.first_session <- Some session_id
      | None -> ())
  | Request_sent { session_id; seq; _ } ->
      if not (Hashtbl.mem t.upd_at (session_id, seq)) then begin
        Hashtbl.replace t.upd_at (session_id, seq) now;
        if now < t.cutoff then t.updates_sent <- t.updates_sent + 1
      end
  | Request_applied { session_id; seq; role = Primary; _ } ->
      t.applied <- t.applied + 1;
      update_reached_primary t ~now (session_id, seq);
      prune_held t session_id
  | Request_applied { session_id; seq; role = Backup; server } ->
      if Hashtbl.mem t.upd_at (session_id, seq) then
        Hashtbl.replace t.backup_held session_id
          ((server, seq) :: Option.value (Hashtbl.find_opt t.backup_held session_id) ~default:[])
  | Response_sent { session_id; id; critical = true; _ } ->
      (* Every send is an attempt, a re-send after a takeover too, unless
         the same response is still on its way. *)
      let key = (session_id, id) in
      if not (Hashtbl.mem t.crit_pending key) then begin
        Hashtbl.replace t.crit_pending key now;
        if now < t.cutoff then t.crit_sent <- t.crit_sent + 1
      end
  | Response_received { session_id; id; critical; from_server; _ } ->
      t.responses <- t.responses + 1;
      if critical then Hashtbl.remove t.crit_pending (session_id, id);
      close_gap t ~now ~sid:session_id ~from:from_server;
      Hashtbl.replace t.serving session_id from_server
  | Server_crashed { server } ->
      Hashtbl.iter
        (fun sid p ->
          if p = server && not (Hashtbl.mem t.gap_open sid) then
            Hashtbl.replace t.gap_open sid (now, server))
        t.serving
  | Server_restarted { server } -> Hashtbl.replace t.restarted_at server now
  | Takeover { kind; had_live_context; server; session_id; _ } ->
      (* A backup that takes over already holds the updates it applied:
         they reach a primary now. *)
      (match Hashtbl.find_opt t.backup_held session_id with
      | Some held ->
          List.iter
            (fun (b, seq) -> if b = server then update_reached_primary t ~now (session_id, seq))
            (List.rev held);
          prune_held t session_id
      | None -> ());
      if kind = Crash then begin
        t.crash_takeovers <- t.crash_takeovers + 1;
        if had_live_context then t.live_takeovers <- t.live_takeovers + 1
      end
  | Propagated _ -> t.propagations <- t.propagations + 1
  | Exchange_sent { digest; records; bytes; _ } ->
      t.exchange_msgs <- t.exchange_msgs + 1;
      t.exchange_bytes <- t.exchange_bytes + bytes;
      Samples.add
        (if digest then t.digest_records else t.delta_records)
        (float_of_int records)
  | Store_recovered { wal_records; _ } ->
      t.recovered_wal <- t.recovered_wal + wal_records
  | Response_sent _ | Session_ended _ | Role_assumed _
  | Role_dropped _ | View_noted _ | Audit_failed _
  | Server_reset _ ->
      ()

let record_events t ~max = t.record_max <- t.n_recorded + max

let recorded t = Array.of_list (List.rev t.recorded)

let sample_pending t f = t.pending <- Some f

let pending_peak t = t.pending_peak

let grants t = t.grants

let updates t = t.updates

let gaps t = t.gaps

let open_gaps t = Hashtbl.length t.gap_open

let granted t = Hashtbl.length t.grant_at

let before_cutoff t tbl = Hashtbl.fold (fun _ at n -> if at < t.cutoff then n + 1 else n) tbl 0

let ungranted t = before_cutoff t t.req_at

let applied t = t.applied



let attempted t = t.updates_sent + t.sessions_asked + t.crit_sent

let failures t = (before_cutoff t t.upd_at, ungranted t, before_cutoff t t.crit_pending)

let failed t =
  let u, s, c = failures t in
  u + s + c

let session_seconds t =
  Hashtbl.fold (fun _ at acc -> acc +. (t.horizon -. at)) t.grant_at 0.

let propagations t = t.propagations

let crash_takeovers t = t.crash_takeovers

let live_takeovers t = t.live_takeovers

let exchange_msgs t = t.exchange_msgs

let exchange_bytes t = t.exchange_bytes

let digest_records t = t.digest_records

let delta_records t = t.delta_records

let recovered_wal_records t = t.recovered_wal

let any_session t = t.first_session

let summary t =
  let samples name s =
    let b = Buffer.create 64 in
    Buffer.add_string b (string_of_int (Samples.count s));
    List.iter
      (fun p ->
        Buffer.add_char b ' ';
        Buffer.add_string b
          (match Samples.percentile s p with Some v -> Printf.sprintf "%h" v | None -> "-"))
      [ 0.5; 0.9; 0.95; 0.99 ];
    Buffer.add_char b ' ';
    Buffer.add_string b (Samples.fingerprint s);
    (name, Buffer.contents b)
  in
  let u, s, c = failures t in
  [
    samples "grant" t.grants;
    samples "update" t.updates;
    samples "gap" t.gaps;
    ("open_gaps", string_of_int (open_gaps t));
    ("ops", string_of_int (ops t));
    ("granted", string_of_int (granted t));
    ("applied", string_of_int t.applied);
    ("responses", string_of_int t.responses);
    ("attempted", string_of_int (attempted t));
    ("failed", Printf.sprintf "%d/%d/%d" u s c);
    ("propagations", string_of_int t.propagations);
    ("takeovers", Printf.sprintf "%d/%d" t.live_takeovers t.crash_takeovers);
    ("exchange", Printf.sprintf "%d/%d" t.exchange_msgs t.exchange_bytes);
    ("recovered_wal", string_of_int t.recovered_wal);
  ]
