(** A fixed piece of work owned by the benchmark, timed next to the
    program to measure how fast the host runs at that moment.

    On a shared host the same binary ran at one time up to twice as fast
    as at another, set-up and run alike.  The benchmark reports its
    machine-dependent times at the speed where {!work} takes
    {!reference_s}: each is scaled by [reference_s] over the time {!work}
    took beside it.  {!work} uses only the standard library (string
    hashing, a hash table, short-lived allocation), so a change to the
    program cannot move it. *)

val work : unit -> int
(** Insert and look up 200,000 string keys in a fresh [Hashtbl]. *)

val reference_s : float
(** The nominal duration of {!work}, in seconds. *)

val time : clock:(unit -> float) -> float
(** Seconds {!work} takes once, by [clock]. *)
