let service_group = "svc"

let content_prefix = "content:"

let session_prefix = "session:"

let session_shard_prefix = "sshard:"

let content_group unit_id = content_prefix ^ unit_id

let session_group session_id = session_prefix ^ session_id

let shard_group k = session_shard_prefix ^ string_of_int k

(* FNV-1a, hand-written rather than the polymorphic [Hashtbl.hash], so
   the map is fixed by this source alone: every member and client hashes
   a session id to the same shard. *)
let fnv_offset = 0x0bf29ce484222325

let fnv_prime = 0x100000001b3

let[@hot] fnv1a s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h land max_int

let session_shard_group ~shards session_id =
  shard_group (fnv1a session_id mod shards)

let[@hot] group_of_session ~shards session_id =
  if shards = 0 then session_group session_id
  else session_shard_group ~shards session_id

let is_service_group g = String.equal g service_group

let strip prefix g =
  if String.length g > String.length prefix
     && String.sub g 0 (String.length prefix) = prefix
  then Some (String.sub g (String.length prefix) (String.length g - String.length prefix))
  else None

let content_unit_of g = strip content_prefix g

let session_of g = strip session_prefix g
