module Engine = Haf_sim.Engine
module Trace = Haf_sim.Trace
module Seqset = Haf_sim.Seqset
module Transport = Haf_net.Transport
module Fd = Failure_detector

type proc = int

(* Every table the daemon iterates is an ordered map, so each traversal
   visits it in key order, and a traversal made while a callback changes
   the table walks the map as it was when the traversal began. *)
module Imap = Map.Make (Int)
module Smap = Map.Make (String)
module Vid_map = Map.Make (View.Id)

module Uid_map = Map.Make (struct
  type t = Wire.uid

  let compare = Wire.compare_uid
end)

(* (group, peer), ordered by group, then peer. *)
module Gp_map = Map.Make (struct
  type t = string * proc

  let compare (g1, p1) (g2, p2) =
    match String.compare g1 g2 with 0 -> Int.compare p1 p2 | c -> c
end)

type callbacks = {
  on_view : View.t -> unit;
  on_message : group:string -> sender:proc -> string -> unit;
  on_p2p : sender:proc -> string -> unit;
}

let no_callbacks =
  {
    on_view = (fun _ -> ());
    on_message = (fun ~group:_ ~sender:_ _ -> ());
    on_p2p = (fun ~sender:_ _ -> ());
  }

type mstate =
  | Stable
  | Proposing of {
      epoch : int;
      candidates : proc list;
      mutable replies : Wire.flush_info Imap.t;
      started : float;
    }
  | Flushed of { epoch : int; coord : proc; since : float }

type gstate = {
  group : string;
  mutable view : View.t;
  mutable log : Wire.entry Imap.t;
      (* seq -> entry, current view only, from [log_floor] up: the
         entries below it every member of the view has delivered. *)
  mutable log_floor : int;
  reported : (proc, int) Hashtbl.t;
      (* Co-member -> the [delivered_up_to] its latest advert for the
         current view carried. *)
  mutable delivered_up_to : int;
  mutable next_seq : int;  (* sequencer-side counter *)
  mutable mstate : mstate;
  mutable max_epoch : int;
  seen_uids : Uid_set.t;
  delivered_uids : Uid_set.t;
      (* Application-level exactly-once guard: a stale copy of a message
         can be re-sequenced after a merge (e.g. a Data_req parked in a
         transport retransmission queue across a partition reaches a new
         sequencer that never saw the uid); the duplicate is dropped at
         the delivery boundary. *)
  mutable outstanding : (Wire.uid * string) list;  (* newest first *)
  mutable relayed : Wire.entry Uid_map.t;
      (* Entries this member forwarded to the sequencer on behalf of a
         non-member (or a stale-view member): held until seen in the log,
         resubmitted after view changes — otherwise a request forwarded
         to a crashed, not-yet-suspected sequencer would vanish. *)
  mutable pending_open : Wire.entry list;  (* open sends held during flush *)
  mutable seq_batch : Wire.entry list;
      (* Newest first: submissions buffered at the sequencer between
         batch flushes (Config.seq_batch_window > 0).  Dropped, not
         sequenced, if a view change intervenes — the originators'
         [outstanding]/[relayed] resubmission recovers every entry. *)
  mutable left : proc list;
}

type t = {
  me : proc;
  engine : Engine.t;
  transport : Transport.t;
  config : Config.t;
  hb_interval : float;
  trace : Trace.t;
  rng : Haf_sim.Rng.t;
  mutable is_alive : bool;
  mutable callbacks : callbacks;
  fd : Fd.t;
  mutable gstates : gstate Smap.t;
  mutable adverts : Adverts.t;
  mutable vid_mismatch : float Gp_map.t;
      (* (group, peer) -> since: the peer advertises a different view id
         for a group we are in.  Persistent mismatch (it survives a few
         heartbeats) means a missed merge — e.g. the peer restarted
         faster than the suspicion timeout — and forces reconciliation. *)
  contacts : proc list;
  incarnation : int;
  serials : (string, int) Hashtbl.t;
      (* group -> next uid serial.  Kept across [leave]: peers keep the
         group's dedup sets, and would silence a rejoining member that
         started again from serial 0. *)
  mutable timers : Engine.timer list;
  mutable view_changes : int;
  mutable audit_hook : (group:string -> Audit.verdict -> unit) option;
      (* Observer for audit failures (the framework emits events from
         it); called just before the group resets. *)
  mutable audits_failed : int;
  mutable resets : int;
}

let proc t = t.me

let alive t = t.is_alive

let set_callbacks t cb = t.callbacks <- cb

let now t = Engine.now t.engine

let tr t fmt =
  let component = if Trace.enabled t.trace then Printf.sprintf "gcs.%d" t.me else "" in
  Trace.emitf t.trace ~time:(now t) ~component fmt

let create ~engine ~transport ~config ~trace ?heartbeat_interval ?incarnation
    ~contacts me =
  let hb = Option.value heartbeat_interval ~default:config.Config.heartbeat_interval in
  let incarnation =
    match incarnation with
    | Some i -> i
    | None ->
        Int64.to_int (Int64.shift_right_logical (Haf_sim.Rng.bits64 (Engine.rng engine)) 2)
  in
  {
    me;
    engine;
    transport;
    config;
    hb_interval = hb;
    trace;
    rng = Engine.fork_rng engine;
    is_alive = false;
    callbacks = no_callbacks;
    fd = Fd.create ~me ~suspect_timeout:config.Config.suspect_timeout;
    gstates = Smap.empty;
    adverts = Adverts.empty;
    vid_mismatch = Gp_map.empty;
    contacts = List.filter (fun p -> p <> me) contacts;
    incarnation;
    serials = Hashtbl.create 8;
    timers = [];
    view_changes = 0;
    audit_hook = None;
    audits_failed = 0;
    resets = 0;
  }

(* ------------------------------------------------------------------ *)
(* Low-level sends                                                     *)

(* Local loopback ([dst = t.me]) still goes through the simulated
   network so that timing stays uniform; handled by the dispatcher like
   any other. *)
let send_reliable t dst msg = Transport.send t.transport ~src:t.me ~dst (Wire.encode msg)

let send_raw t dst payload = Transport.send_unreliable t.transport ~src:t.me ~dst payload

let my_adverts t =
  Smap.fold
    (fun g gs acc ->
      { Wire.adv_group = g; adv_vid = gs.view.View.id; adv_delivered = gs.delivered_up_to }
      :: acc)
    t.gstates []

let fresh_uid t group =
  let serial = Option.value (Hashtbl.find_opt t.serials group) ~default:0 in
  Hashtbl.replace t.serials group (serial + 1);
  { Wire.origin = t.me; incarnation = t.incarnation; serial }

(* ------------------------------------------------------------------ *)
(* Beliefs                                                             *)

let advertisers t group = Adverts.advertisers group t.adverts

let believed_members t group =
  match Smap.find_opt group t.gstates with
  | Some gs -> gs.view.View.members
  | None -> advertisers t group

let reachable t p = p = t.me || Fd.reachable t.fd p

let monitor_peer t p = Fd.monitor t.fd p ~now:(now t)

let suspects t = Fd.suspects t.fd

let groups t = List.map fst (Smap.bindings t.gstates)

let is_member t group = Smap.mem group t.gstates

let view_of t group =
  Option.map (fun gs -> gs.view) (Smap.find_opt group t.gstates)

let stats_view_changes t = t.view_changes

let incarnation t = t.incarnation

let set_audit_hook t h = t.audit_hook <- h

let stats_audits_failed t = t.audits_failed

let stats_resets t = t.resets

type history = {
  log_seqs : int list;
  seen : ((proc * int) * Seqset.t) list;
  delivered : ((proc * int) * Seqset.t) list;
}

let history t group =
  Option.map
    (fun gs ->
      {
        log_seqs = List.map fst (Imap.bindings gs.log);
        seen = Uid_set.ranges gs.seen_uids;
        delivered = Uid_set.ranges gs.delivered_uids;
      })
    (Smap.find_opt group t.gstates)

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)

(* [l] without [uid]'s binding; [l] itself when it holds none. *)
let rec drop_outstanding (uid : Wire.uid) l =
  match l with
  | [] -> l
  | ((u, _) as x) :: rest ->
      if Wire.compare_uid u uid = 0 then rest
      else
        let rest' = drop_outstanding uid rest in
        if rest' == rest then l else x :: rest'

let[@hot] note_logged t gs (entry : Wire.entry) =
  Uid_set.add gs.seen_uids entry.uid;
  gs.relayed <- Uid_map.remove entry.uid gs.relayed;
  if Int.equal entry.uid.origin t.me then
    gs.outstanding <- drop_outstanding entry.uid gs.outstanding

let[@hot] deliver t gs (entry : Wire.entry) =
  if not (Uid_set.mem gs.delivered_uids entry.uid) then begin
    Uid_set.add gs.delivered_uids entry.uid;
    t.callbacks.on_message ~group:gs.group ~sender:entry.orig entry.payload
  end

let[@hot] deliver_contiguous t gs =
  let continue = ref true in
  while !continue do
    match Imap.find_opt (gs.delivered_up_to + 1) gs.log with
    | Some entry ->
        gs.delivered_up_to <- gs.delivered_up_to + 1;
        deliver t gs entry
    | None -> continue := false
  done

(* Start a view's log afresh: on install and on reset. *)
let clear_log gs =
  gs.log <- Imap.empty;
  gs.log_floor <- 1;
  Hashtbl.reset gs.reported;
  gs.delivered_up_to <- 0

(* Store a received entry, unless a copy is held or was already trimmed
   as delivered everywhere. *)
let[@hot] log_entry gs (seq : int) entry =
  if seq >= gs.log_floor && not (Imap.mem seq gs.log) then
    gs.log <- Imap.add seq entry gs.log

(* ------------------------------------------------------------------ *)
(* Stability: trimming the view log                                    *)

(* The lowest delivery clock over [members]: [own] for this daemon, the
   reported value for a co-member; [-1] while one has not reported. *)
let rec reported_min gs me own acc = function
  | [] -> acc
  | m :: rest ->
      if Int.equal m me then reported_min gs me own (Int.min acc own) rest
      else (
        match Hashtbl.find gs.reported m with
        | d -> reported_min gs me own (Int.min acc d) rest
        | exception Not_found -> -1)

(* Drop the log entries every member of the view has delivered; run on
   each heartbeat tick, after the audit.  A survivor of the next view change needs only the entries above its own
   [delivered_up_to], and none of those is dropped anywhere; the entry
   at our own clock stays, for the audit's horizon check.  A stale or
   corrupted report can only hold trimming back, except at the member
   that sent it.  Not during a view change: the flush is already under
   way with the log as it stands. *)
let[@hot] trim_log t gs =
  match gs.mstate with
  | Stable ->
      let own = gs.delivered_up_to in
      let stable = reported_min gs t.me own own gs.view.View.members in
      while gs.log_floor < stable do
        gs.log <- Imap.remove gs.log_floor gs.log;
        gs.log_floor <- gs.log_floor + 1
      done
  | Proposing _ | Flushed _ -> ()

(* ------------------------------------------------------------------ *)
(* Sequencing (this daemon is the coordinator of the current view)     *)

(* Assign the next slot to an unseen entry: the one place sequence
   numbers are minted, shared by the per-entry and the batched path so
   both produce the same total order for the same submission order. *)
let[@hot] assign_seq t gs (entry : Wire.entry) =
  if Uid_set.mem gs.seen_uids entry.uid then None
  else begin
    let seq = gs.next_seq in
    gs.next_seq <- seq + 1;
    gs.log <- Imap.add seq entry gs.log;
    note_logged t gs entry;
    Some (seq, entry)
  end

let sequence_now t gs (entry : Wire.entry) =
  match assign_seq t gs entry with
  | None -> ()
  | Some (seq, entry) -> (
      List.iter
        (fun m ->
          if m <> t.me then
            send_reliable t m (Wire.Data { group = gs.group; vid = gs.view.View.id; seq; entry }))
        gs.view.View.members;
      match gs.mstate with Stable -> deliver_contiguous t gs | _ -> ())

let sequence t gs (entry : Wire.entry) =
  if t.config.Config.seq_batch_window > 0. then
    (* Buffered; the batch timer flushes in submission order, so the
       total order is the one [sequence_now] would have produced. *)
    gs.seq_batch <- entry :: gs.seq_batch
  else sequence_now t gs entry

(* One sequencer flush: number the whole batch consecutively and ship a
   single frame per member.  Anything buffered across a view change or
   a coordinator handoff is dropped here — never sequenced — and comes
   back through the install path's resubmission. *)
let flush_batch t gs =
  let pending = List.rev gs.seq_batch in
  gs.seq_batch <- [];
  if pending <> [] then
    match gs.mstate with
    | Stable when View.coordinator gs.view = t.me -> (
        match List.filter_map (fun e -> assign_seq t gs e) pending with
        | [] -> ()
        | entries ->
            List.iter
              (fun m ->
                if m <> t.me then
                  send_reliable t m
                    (Wire.Data_batch
                       { group = gs.group; vid = gs.view.View.id; entries }))
              gs.view.View.members;
            deliver_contiguous t gs)
    | Stable | Proposing _ | Flushed _ -> ()

(* Attribution slots for the two per-server periodic sweeps — together
   with the per-session service tick these make up nearly all of the
   engine's [Internal] firings at bench scale. *)
let prof_batch = Haf_sim.Profile.slot "gcs.batch"

let prof_heartbeat = Haf_sim.Profile.slot "gcs.heartbeat"

let batch_tick_body t =
  if t.is_alive then Smap.iter (fun _ gs -> flush_batch t gs) t.gstates

let batch_tick t =
  if Haf_sim.Profile.hit prof_batch then begin
    let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
    batch_tick_body t;
    Haf_sim.Profile.leave prof_batch ~w0 ~c0
  end
  else batch_tick_body t

let submit t gs (entry : Wire.entry) =
  match gs.mstate with
  | Stable ->
      let coord = View.coordinator gs.view in
      if coord = t.me then sequence t gs entry
      else send_reliable t coord (Wire.Data_req { group = gs.group; entry })
  | Proposing _ | Flushed _ ->
      (* Buffered; the install path resubmits outstanding/pending. *)
      ()

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

let candidates_for t gs =
  let base = gs.view.View.members @ advertisers t gs.group @ [ t.me ] in
  base
  |> List.sort_uniq Int.compare
  |> List.filter (fun p ->
         p = t.me
         || ((not (Fd.suspected t.fd p)) && Fd.is_monitored t.fd p
            && not (List.mem p gs.left)))

let flush_info_of t gs =
  {
    Wire.fi_sender = t.me;
    fi_member = true;
    fi_prev_vid = gs.view.View.id;
    fi_log = Imap.bindings gs.log;
  }

let merge_sync_sets replies =
  (* Group the repliers' logs by previous view id and take unions. *)
  let by_vid =
    List.fold_left
      (fun acc (info : Wire.flush_info) ->
        if info.fi_member then
          let log = Option.value (Vid_map.find_opt info.fi_prev_vid acc) ~default:Imap.empty in
          Vid_map.add info.fi_prev_vid
            (List.fold_left (fun log (seq, entry) -> Imap.add seq entry log) log info.fi_log)
            acc
        else acc)
      Vid_map.empty replies
  in
  Vid_map.fold (fun vid log acc -> (vid, Imap.bindings log) :: acc) by_vid []

let drop_vid_mismatches t group =
  t.vid_mismatch <- Gp_map.filter (fun (g, _) _ -> not (String.equal g group)) t.vid_mismatch

let rec apply_install t gs ~epoch ~view_id ~members ~sync =
  (* Risky-pattern choice point (paper §4): a member may crash at the
     instant it would install a new view — after flushing, before the
     installation takes effect locally. *)
  if Engine.choice t.engine ~site:"install" ~proc:t.me then ()
  else begin
  (* Virtual synchrony: deliver the synchronization set of our previous
     view (messages some surviving member had that we may not have
     delivered) before switching views. *)
  (match List.assoc_opt gs.view.View.id sync with
  | Some entries ->
      List.iter
        (fun (seq, entry) ->
          note_logged t gs entry;
          if seq > gs.delivered_up_to then begin
            gs.delivered_up_to <- seq;
            deliver t gs entry
          end)
        entries
  | None -> ());
  let view = View.make ~id:view_id ~group:gs.group ~members in
  gs.view <- view;
  clear_log gs;
  gs.next_seq <- 1;
  gs.mstate <- Stable;
  gs.max_epoch <- Int.max gs.max_epoch epoch;
  gs.left <- [];
  drop_vid_mismatches t gs.group;
  t.view_changes <- t.view_changes + 1;
  List.iter (fun m -> monitor_peer t m) members;
  tr t "installed %a" View.pp view;
  t.callbacks.on_view view;
  (* Resubmit multicasts not yet sequenced, oldest first, and any open
     sends buffered during the flush. *)
  let mine = List.rev gs.outstanding in
  List.iter
    (fun (uid, payload) -> submit t gs { Wire.uid; orig = t.me; payload })
    mine;
  let opens = List.rev gs.pending_open in
  gs.pending_open <- [];
  List.iter (fun entry -> submit t gs entry) opens;
  Uid_map.iter (fun _ entry -> submit t gs entry) gs.relayed
  end

and finalize_proposal t gs ~epoch ~candidates ~replies =
  let infos = List.map snd (Imap.bindings replies) in
  let members =
    List.filter
      (fun c ->
        match Imap.find_opt c replies with
        | Some info -> info.Wire.fi_member
        | None -> false)
      candidates
  in
  let view_id = { View.Id.epoch; coord = t.me } in
  let sync = merge_sync_sets infos in
  List.iter
    (fun m ->
      if m <> t.me then
        send_reliable t m
          (Wire.Install { group = gs.group; epoch; view_id; members; sync }))
    members;
  apply_install t gs ~epoch ~view_id ~members ~sync

and check_finalize t gs =
  match gs.mstate with
  | Proposing { epoch; candidates; replies; _ } ->
      if List.for_all (fun c -> Imap.mem c replies) candidates then
        finalize_proposal t gs ~epoch ~candidates ~replies
  | Stable | Flushed _ -> ()

and propose t gs =
  let candidates = candidates_for t gs in
  let epoch = Int.max gs.max_epoch gs.view.View.id.View.Id.epoch + 1 in
  gs.max_epoch <- epoch;
  let replies = Imap.singleton t.me (flush_info_of t gs) in
  gs.mstate <- Proposing { epoch; candidates; replies; started = now t };
  tr t "propose %s e%d cands=[%s]" gs.group epoch
    (String.concat "," (List.map string_of_int candidates));
  List.iter
    (fun c ->
      if c <> t.me then
        send_reliable t c (Wire.Propose { group = gs.group; epoch; candidates }))
    candidates;
  check_finalize t gs

(* A co-member has been advertising a different view id for longer
   than the advert-refresh lag: a merge was missed. *)
let stale_vid_mismatch t gs =
  let threshold = 2.5 *. t.hb_interval in
  let cands = candidates_for t gs in
  Gp_map.exists
    (fun (g, q) since ->
      String.equal g gs.group && List.mem q cands && now t -. since > threshold)
    t.vid_mismatch

let membership_needed t gs =
  let candidates = candidates_for t gs in
  candidates <> gs.view.View.members || stale_vid_mismatch t gs

(* Who should coordinate the next view change: the lowest candidate that
   is actually advertising membership (a candidate that is only a stale
   entry in our view has no daemon state for the group and will never
   propose).  Two components merging after a heal both have a coordinator;
   without a single agreed proposer they duel with ever-increasing epochs
   — the higher-ranked one must yield. *)
let should_coordinate t gs =
  let advertising = advertisers t gs.group in
  let eligible =
    List.filter (fun p -> p = t.me || List.mem p advertising) (candidates_for t gs)
  in
  match eligible with leader :: _ -> leader = t.me | [] -> true

let membership_stable t group =
  match Smap.find_opt group t.gstates with
  | None -> true
  | Some gs -> ( match gs.mstate with Stable -> not (membership_needed t gs) | _ -> false)

let sweep_group t gs =
  match gs.mstate with
  | Stable ->
      if membership_needed t gs && should_coordinate t gs then propose t gs
      (* otherwise wait for the legitimate coordinator's proposal *)
  | Proposing { started; candidates; _ } ->
      let current = candidates_for t gs in
      let timed_out = now t -. started > t.config.Config.flush_timeout in
      if
        timed_out
        || List.exists (fun c -> Fd.suspected t.fd c) candidates
        || List.exists (fun c -> not (List.mem c candidates)) current
      then
        if should_coordinate t gs then
          (* Re-propose with a fresh epoch and the current perception. *)
          propose t gs
        else
          (* A lower-ranked coordinator exists (e.g. discovered during a
             merge): yield to it rather than duelling epochs. *)
          gs.mstate <- Stable
  | Flushed { coord; since; _ } ->
      if Fd.suspected t.fd coord || now t -. since > 2. *. t.config.Config.flush_timeout
      then begin
        gs.mstate <- Stable;
        (* Next sweep will re-run the protocol with a fresh perception. *)
        if membership_needed t gs then
          match candidates_for t gs with
          | leader :: _ when leader = t.me -> propose t gs
          | _ -> ()
      end

(* ------------------------------------------------------------------ *)
(* Self-stabilization: audit, reset, corruption injection              *)

(* One group's verdict: first failing check wins.  Pure — shared by the
   periodic audit, the on-receive audit and the external oracle. *)
let group_verdict t gs =
  let checks =
    [
      Audit.check_view ~me:t.me gs.view;
      Audit.check_counters ~view:gs.view ~max_epoch:gs.max_epoch
        ~next_seq:gs.next_seq;
      Audit.check_clock ~group:gs.group ~delivered_up_to:gs.delivered_up_to
        ~log_holds_horizon:
          (gs.delivered_up_to = 0 || Imap.mem gs.delivered_up_to gs.log);
    ]
  in
  match List.find_opt (fun v -> not (Audit.is_sound v)) checks with
  | Some v -> v
  | None -> Audit.Sound

let audit_ok t =
  Smap.for_all (fun _ gs -> Audit.is_sound (group_verdict t gs)) t.gstates

(* Local reset-and-rejoin: throw away the group's poisoned view state
   and fall back to a fresh singleton, exactly as a joining process
   does.  Peers see the advert's view id diverge, the vid-mismatch
   machinery forces a merge, and the install path resubmits our
   outstanding multicasts — so recovery rides the ordinary membership
   protocol rather than a parallel one.  The epoch high-water mark is
   kept (clamped non-negative) so the merge's proposal outbids both
   lives. *)
let reset_group t gs =
  gs.view <- View.singleton ~group:gs.group t.me;
  clear_log gs;
  gs.next_seq <- 1;
  gs.mstate <- Stable;
  gs.max_epoch <- Int.max 0 gs.max_epoch;
  gs.seq_batch <- [];
  gs.left <- [];
  drop_vid_mismatches t gs.group;
  t.view_changes <- t.view_changes + 1;
  t.resets <- t.resets + 1
  (* No [on_view] callback: the transient singleton is not a membership
     fact the application should act on (it would look like a
     partition); the app hears about the merged view that follows. *)

let audit_group t gs =
  if not !Audit.enabled then true
  else
    match group_verdict t gs with
    | Audit.Sound -> true
    | (Audit.Bad_view _ | Audit.Bad_counter _ | Audit.Bad_clock _
      | Audit.Bad_record _) as v ->
        t.audits_failed <- t.audits_failed + 1;
        tr t "audit failed: %s — reset and rejoin" (Audit.describe v);
        (match t.audit_hook with
        | Some hook -> hook ~group:gs.group v
        | None -> ());
        reset_group t gs;
        false

(* Each tick, per group: the audit, then, on a sound group, trimming. *)
let audit_all t =
  Smap.iter (fun _ gs -> if audit_group t gs then trim_log t gs) t.gstates

(* Chaos delivery point: each heartbeat tick asks the engine's corruptor
   whether an armed corruption should land here.  Always consulted in
   the same order, so a replayed schedule corrupts the same state at the
   same tick.  The damage deliberately bypasses the smart constructors
   and mutates records directly — that is what "arbitrary transient
   state corruption" means. *)
let corruption_tick t =
  let first_gstate () = Option.map snd (Smap.min_binding_opt t.gstates) in
  if Engine.corruption t.engine ~site:"corrupt.view" ~proc:t.me then
    (match first_gstate () with
    | Some gs ->
        let v = gs.view in
        let others = List.filter (fun p -> p <> t.me) v.View.members in
        if others <> [] then gs.view <- { v with View.members = others }
        else
          gs.view <-
            {
              v with
              View.id = { v.View.id with View.Id.epoch = v.View.id.View.Id.epoch + 3 };
            }
    | None -> ());
  if Engine.corruption t.engine ~site:"corrupt.epoch" ~proc:t.me then
    (match first_gstate () with
    | Some gs -> gs.max_epoch <- -1
    | None -> ());
  if Engine.corruption t.engine ~site:"corrupt.clock" ~proc:t.me then
    (match first_gstate () with
    | Some gs -> gs.delivered_up_to <- gs.delivered_up_to + 7
    | None -> ());
  if Engine.corruption t.engine ~site:"corrupt.conn" ~proc:t.me then
    ignore (Transport.corrupt_conn t.transport t.me)

(* ------------------------------------------------------------------ *)
(* Heartbeats                                                          *)

let record_adverts t sender advs =
  t.adverts <- Adverts.record sender advs t.adverts;
  (* Hearing adverts implies direct reachability: monitor the peer so the
     failure detector can vouch for it as a membership candidate. *)
  monitor_peer t sender;
  Fd.heard_from t.fd sender ~now:(now t);
  if sender <> t.me then
    Smap.iter
      (fun g gs ->
        match Adverts.find sender g t.adverts with
        | Some a ->
            (* A peer we saw leave is advertising membership again: it
               rejoined; stop excluding it from candidate sets. *)
            if List.mem sender gs.left then
              gs.left <- List.filter (fun p -> p <> sender) gs.left;
            if not (View.Id.equal a.Wire.adv_vid gs.view.View.id) then begin
              if not (Gp_map.mem (g, sender) t.vid_mismatch) then
                t.vid_mismatch <- Gp_map.add (g, sender) (now t) t.vid_mismatch
            end
            else begin
              t.vid_mismatch <- Gp_map.remove (g, sender) t.vid_mismatch;
              Hashtbl.replace gs.reported sender a.Wire.adv_delivered
            end
        | None -> t.vid_mismatch <- Gp_map.remove (g, sender) t.vid_mismatch)
      t.gstates

let heartbeat_tick_body t =
  if t.is_alive then begin
    (* Audit before consulting the corruptor: damage injected this tick
       is detected no earlier than the next one, so reconvergence time
       is bounded below by a heartbeat period — never zero. *)
    audit_all t;
    corruption_tick t;
    (* One encoding for every peer: the bytes are the same. *)
    let ping = Wire.encode (Wire.Ping { adverts = my_adverts t }) in
    List.iter (fun p -> send_raw t p ping) (Fd.monitored t.fd);
    ignore (Fd.sweep t.fd ~now:(now t));
    Smap.iter (fun _ gs -> sweep_group t gs) t.gstates
  end

let heartbeat_tick t =
  if Haf_sim.Profile.hit prof_heartbeat then begin
    let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
    heartbeat_tick_body t;
    Haf_sim.Profile.leave prof_heartbeat ~w0 ~c0
  end
  else heartbeat_tick_body t

(* ------------------------------------------------------------------ *)
(* Incoming protocol messages                                          *)

let handle_propose t ~src ~group ~epoch ~candidates =
  ignore candidates;
  match Smap.find_opt group t.gstates with
  | None ->
      (* Not a member (stale advert or restart): tell the proposer so it
         can exclude us from the view. *)
      send_reliable t src
        (Wire.Flush_reply
           {
             group;
             epoch;
             info =
               {
                 fi_sender = t.me;
                 fi_member = false;
                 fi_prev_vid = View.Id.initial t.me;
                 fi_log = [];
               };
           })
  | Some gs ->
      if epoch <= gs.max_epoch then
        send_reliable t src (Wire.Nack { group; epoch_hint = gs.max_epoch })
      else if Fd.suspected t.fd src then ()
      else begin
        gs.max_epoch <- epoch;
        gs.mstate <- Flushed { epoch; coord = src; since = now t };
        send_reliable t src
          (Wire.Flush_reply { group; epoch; info = flush_info_of t gs })
      end

let handle_flush_reply t ~group ~epoch ~info =
  match Smap.find_opt group t.gstates with
  | None -> ()
  | Some gs -> (
      match gs.mstate with
      | Proposing ({ epoch = e; candidates; _ } as p)
        when e = epoch && List.mem info.Wire.fi_sender candidates ->
          p.replies <- Imap.add info.Wire.fi_sender info p.replies;
          check_finalize t gs
      | Proposing _ | Stable | Flushed _ -> ())

let handle_nack t ~group ~epoch_hint =
  match Smap.find_opt group t.gstates with
  | None -> ()
  | Some gs -> (
      match gs.mstate with
      | Proposing { epoch; _ } when epoch_hint >= epoch ->
          gs.max_epoch <- Int.max gs.max_epoch epoch_hint;
          if should_coordinate t gs then propose t gs
          else
            (* Yield: the peer that outbid us outranks us too; it will
               drive the view change. *)
            gs.mstate <- Stable
      | Proposing _ | Stable | Flushed _ ->
          gs.max_epoch <- Int.max gs.max_epoch epoch_hint)

let handle_install t ~group ~epoch ~view_id ~members ~sync =
  match Smap.find_opt group t.gstates with
  | None -> ()
  | Some gs -> (
      match gs.mstate with
      | Flushed { epoch = e; _ } when e = epoch && List.mem t.me members ->
          apply_install t gs ~epoch ~view_id ~members ~sync
      | Flushed _ | Stable | Proposing _ -> ())

let handle_data_batch t ~group ~vid ~entries =
  match Smap.find_opt group t.gstates with
  | None -> ()
  | Some gs ->
      (* On-receive audit: catch a corrupted delivery clock before it
         can stall or skip this view's total order.  [audit_group]
         resets the group on failure, after which [vid] no longer
         matches and the data is ignored like any other stale frame. *)
      if audit_group t gs && View.Id.equal vid gs.view.View.id then begin
        List.iter
          (fun (seq, entry) ->
            log_entry gs seq entry;
            note_logged t gs entry)
          entries;
        match gs.mstate with Stable -> deliver_contiguous t gs | _ -> ()
      end

let handle_data_req t ~group ~entry =
  match Smap.find_opt group t.gstates with
  | None -> ()
  | Some gs -> (
      match gs.mstate with
      | Stable ->
          let coord = View.coordinator gs.view in
          if coord = t.me then sequence t gs entry
          else begin
            if not (Uid_set.mem gs.seen_uids entry.Wire.uid) then
              gs.relayed <- Uid_map.add entry.Wire.uid entry gs.relayed;
            send_reliable t coord (Wire.Data_req { group; entry })
          end
      | Proposing _ | Flushed _ ->
          gs.pending_open <- entry :: gs.pending_open)

let handle_open_send t ~group ~entry ~ttl =
  match Smap.find_opt group t.gstates with
  | Some _ -> handle_data_req t ~group ~entry
  | None ->
      if ttl > 0 then begin
        let targets = advertisers t group in
        let targets = List.filter (fun p -> p <> t.me && reachable t p) targets in
        List.iter
          (fun p -> send_reliable t p (Wire.Open_send { group; entry; ttl = ttl - 1 }))
          targets
      end

let handle_leave t ~group ~who =
  match Smap.find_opt group t.gstates with
  | None -> ()
  | Some gs ->
      if not (List.mem who gs.left) then gs.left <- who :: gs.left;
      t.adverts <- Adverts.forget who group t.adverts;
      sweep_group t gs

(* Decode + validate an inbound payload.  A payload that does not decode
   (corrupted bytes) or decodes to a structurally invalid message (a
   corrupted peer marshalled its poisoned state) is dropped and counted
   — it must never reach a handler. *)
let checked_decode t payload =
  let decoded = try Some (Wire.decode payload) with _ -> None in
  match decoded with
  | None ->
      Transport.note_rejected t.transport;
      None
  | Some msg -> (
      match Wire.validate msg with
      | Ok () -> Some msg
      | Error reason ->
          Transport.note_rejected t.transport;
          tr t "rejected inbound %s: %s" (Wire.describe msg) reason;
          None)

let on_reliable t ~src payload =
  if t.is_alive then begin
    Fd.heard_from t.fd src ~now:(now t);
    match checked_decode t payload with
    | None -> ()
    | Some (Wire.Propose { group; epoch; candidates }) ->
        handle_propose t ~src ~group ~epoch ~candidates
    | Some (Wire.Flush_reply { group; epoch; info }) ->
        handle_flush_reply t ~group ~epoch ~info
    | Some (Wire.Nack { group; epoch_hint }) -> handle_nack t ~group ~epoch_hint
    | Some (Wire.Install { group; epoch; view_id; members; sync }) ->
        handle_install t ~group ~epoch ~view_id ~members ~sync
    | Some (Wire.Data { group; vid; seq; entry }) ->
        handle_data_batch t ~group ~vid ~entries:[ (seq, entry) ]
    | Some (Wire.Data_batch { group; vid; entries }) ->
        handle_data_batch t ~group ~vid ~entries
    | Some (Wire.Data_req { group; entry }) -> handle_data_req t ~group ~entry
    | Some (Wire.Open_send { group; entry; ttl }) ->
        handle_open_send t ~group ~entry ~ttl
    | Some (Wire.Leave { group; who }) -> handle_leave t ~group ~who
    | Some (Wire.P2p { payload }) -> t.callbacks.on_p2p ~sender:src payload
    | Some (Wire.Ping _ | Wire.Pong _) -> ()
  end

let on_raw t ~src payload =
  if t.is_alive then
    match checked_decode t payload with
    | None -> ()
    | Some (Wire.Ping { adverts }) ->
        record_adverts t src adverts;
        send_raw t src (Wire.encode (Wire.Pong { adverts = my_adverts t }))
    | Some (Wire.Pong { adverts }) -> record_adverts t src adverts
    (* Reliable-only traffic never legitimately arrives on the raw
       datagram path; name every constructor (deep-lint R6) so a new
       message kind must decide its transport explicitly. *)
    | Some
        (Wire.Propose _ | Wire.Flush_reply _ | Wire.Nack _ | Wire.Install _
        | Wire.Data _ | Wire.Data_batch _ | Wire.Data_req _ | Wire.Open_send _
        | Wire.Leave _ | Wire.P2p _) -> ()

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

let start t =
  t.is_alive <- true;
  Transport.attach t.transport t.me
    ~on_raw:(fun ~src payload -> on_raw t ~src payload)
    (fun ~src payload -> on_reliable t ~src payload);
  List.iter (fun c -> monitor_peer t c) t.contacts;
  let first = Haf_sim.Rng.float t.rng t.hb_interval in
  let timer = Engine.every t.engine ~first ~period:t.hb_interval (fun () -> heartbeat_tick t) in
  t.timers <- timer :: t.timers;
  (* One batch timer per daemon, not per group: at session-shard scale a
     daemon coordinates many groups, and per-group timers would put the
     engine right back in the per-session hot loop batching removes. *)
  let w = t.config.Config.seq_batch_window in
  if w > 0. then begin
    let bt = Engine.every t.engine ~first:w ~period:w (fun () -> batch_tick t) in
    t.timers <- bt :: t.timers
  end

let stop t =
  t.is_alive <- false;
  List.iter Engine.cancel t.timers;
  t.timers <- []

let join t group =
  if not (Smap.mem group t.gstates) then begin
    let gs =
      {
        group;
        view = View.singleton ~group t.me;
        log = Imap.empty;
        log_floor = 1;
        reported = Hashtbl.create 4;
        delivered_up_to = 0;
        next_seq = 1;
        mstate = Stable;
        max_epoch = 0;
        seen_uids = Uid_set.create ();
        delivered_uids = Uid_set.create ();
        outstanding = [];
        relayed = Uid_map.empty;
        pending_open = [];
        seq_batch = [];
        left = [];
      }
    in
    t.gstates <- Smap.add group gs t.gstates;
    t.view_changes <- t.view_changes + 1;
    t.callbacks.on_view gs.view;
    (* Announce immediately rather than waiting a heartbeat period. *)
    heartbeat_tick t
  end

let leave t group =
  match Smap.find_opt group t.gstates with
  | None -> ()
  | Some gs ->
      List.iter
        (fun m -> if m <> t.me then send_reliable t m (Wire.Leave { group; who = t.me }))
        gs.view.View.members;
      t.gstates <- Smap.remove group t.gstates

let multicast t group payload =
  match Smap.find_opt group t.gstates with
  | None -> invalid_arg (Printf.sprintf "Daemon.multicast: %d not in %s" t.me group)
  | Some gs ->
      let uid = fresh_uid t group in
      gs.outstanding <- (uid, payload) :: gs.outstanding;
      submit t gs { Wire.uid; orig = t.me; payload }

let open_send t group payload =
  match Smap.find_opt group t.gstates with
  | Some _ -> multicast t group payload
  | None ->
      let entry = { Wire.uid = fresh_uid t group; orig = t.me; payload } in
      let believed = believed_members t group in
      let targets = List.filter (fun p -> reachable t p && p <> t.me) believed in
      let targets = if targets = [] then List.filter (reachable t) t.contacts else targets in
      List.iter
        (fun p ->
          send_reliable t p
            (Wire.Open_send { group; entry; ttl = t.config.Config.open_send_ttl }))
        targets

let p2p t ~dst payload = send_reliable t dst (Wire.P2p { payload })
