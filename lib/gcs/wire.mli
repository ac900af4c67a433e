(** GCS wire protocol.

    Heartbeats ([Ping]/[Pong]) travel as unreliable datagrams; everything
    else uses the reliable FIFO transport.  Application payloads are opaque
    strings so that the GCS stays independent of the layers above. *)

type proc = int

type uid = { origin : proc; incarnation : int; serial : int }
(** Application-message id, unique within its group: used to
    deduplicate resubmissions across view changes and fan-out copies of
    open-group sends.  [serial] counts the origin's sends to that group,
    so one origin's serials in a group are contiguous.  [incarnation] is
    drawn at daemon start so that a restarted process never reuses a
    previous life's ids (survivors keep old uids in their dedup sets and
    would otherwise silence the new process). *)

val compare_uid : uid -> uid -> int
(** Explicit total order on uids ([origin], then [incarnation], then
    [serial]); protocol code must use this rather than the polymorphic
    [compare] (haf-lint rule R2). *)

type entry = { uid : uid; orig : proc; payload : string }
(** An application multicast as carried by the protocol. *)

type advert = { adv_group : string; adv_vid : View.Id.t; adv_delivered : int }
(** "I am a member of [adv_group], currently in view [adv_vid], and have
    delivered its messages up to seq [adv_delivered]" — piggybacked on
    heartbeats.  Group and view id are the basis of discovery and merge;
    the delivery clock tells co-members of the same view which log
    entries every member has delivered, so they can drop them. *)

type flush_info = {
  fi_sender : proc;
  fi_member : bool;  (** [false]: not in this group (stale proposal). *)
  fi_prev_vid : View.Id.t;
  fi_log : (int * entry) list;
      (** seq -> entry: the sender's view log, which holds the view's
          unstable suffix — every entry above the lowest delivery clock
          its co-members have advertised. *)
}

type msg =
  | Ping of { adverts : advert list }
  | Pong of { adverts : advert list }
  | Propose of { group : string; epoch : int; candidates : proc list }
  | Flush_reply of { group : string; epoch : int; info : flush_info }
  | Nack of { group : string; epoch_hint : int }
      (** "Your proposal's epoch is stale; retry above [epoch_hint]." *)
  | Install of {
      group : string;
      epoch : int;
      view_id : View.Id.t;
      members : proc list;
      sync : (View.Id.t * (int * entry) list) list;
          (** Per previous-view synchronization sets: the union of the
              surviving members' (unstable) logs, the heart of virtual
              synchrony. *)
    }
  | Data_req of { group : string; entry : entry }
  | Data of { group : string; vid : View.Id.t; seq : int; entry : entry }
  | Data_batch of { group : string; vid : View.Id.t; entries : (int * entry) list }
      (** One sequencer flush ({!Config.t.seq_batch_window}): consecutively
          numbered entries in one frame, semantically the same [Data]
          frames back-to-back. *)
  | Open_send of { group : string; entry : entry; ttl : int }
  | Leave of { group : string; who : proc }
  | P2p of { payload : string }

val encode : msg -> string

val decode : string -> msg

val validate : msg -> (unit, string) result
(** Structural validation of an inbound message: every invariant a
    well-formed sender establishes (non-empty group names, epochs and
    sequence numbers in range, non-empty memberships, well-formed uids)
    is re-checked at the decode boundary, so one corrupted replica
    cannot propagate garbage into healthy peers.  Receivers drop — and
    count, via {!Haf_net.Transport.note_rejected} — anything that
    fails. *)

val describe : msg -> string
(** Short human-readable tag for traces. *)
