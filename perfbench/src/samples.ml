type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 64 0.; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let append ~into t =
  for i = 0 to t.n - 1 do
    add into t.a.(i)
  done

let min_beyond = 10

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

let rank n p = Int.max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let percentile t p =
  let r = rank t.n p in
  if t.n - r < min_beyond then None else Some (sorted t).(r - 1)

let quantile t p = if t.n = 0 then None else Some (sorted t).(rank t.n p - 1)

let median t = quantile t 0.5

let fingerprint t =
  let b = Buffer.create (t.n * 8) in
  for i = 0 to t.n - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float t.a.(i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
