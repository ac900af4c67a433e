(** The benchmark proper: set-up timing, untraced runs for the
    end-to-end metrics, traced runs of the same seeds for the per-layer
    metrics, and the correctness gate. *)

type metric = {
  name : string;
  value : float option;  (** [None]: too few samples for this percentile. *)
  unit_ : string;
  samples : int;  (** Observations behind the value. *)
  exact : bool;
      (** Exact for a given seed (simulated time or a count), as opposed
          to machine-dependent (CPU or wall time, heap). *)
}

type result = {
  workload : Workload.t;
  iterations : int;  (** Scenario seeds run untraced. *)
  correct : bool;
  problems : string list;  (** Why [correct] is false. *)
  attempted : int;
  failed : int;
  failures : int * int * int;
      (** [failed] split as (updates never applied by a primary,
          sessions never granted, critical responses never received). *)
  open_gaps : int;  (** Sessions still without service at the horizon after a crash. *)
  rates : float list;  (** Operations per CPU second of each untraced scenario run. *)
  setups : Samples.t;  (** Wall seconds of every timed set-up, unscaled. *)
  calibs : Samples.t;
      (** CPU seconds of every {!Calib.work}, one after each set-up. *)
  end_to_end : metric list;  (** Every end-to-end metric, from the untraced runs. *)
  per_layer : metric list;  (** Traced runs only; [] otherwise. *)
}

val gated : string list
(** The end-to-end metrics every workload always has, which the JSON
    result line carries. *)

val run :
  wall:(unit -> float) ->
  cpu:(unit -> float) ->
  Workload.t ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  result
(** [wall] and [cpu] are injected clocks (seconds).  Ahead of each
    scenario run and after the last, 8 set-ups of the first scenario
    seed are timed, each followed by one {!Calib.work}.  [setup_s] is
    the median of each set-up's time over its calibration's, times
    {!Calib.reference_s}; [ops_per_cpu_s] is scaled by the median
    calibration over {!Calib.reference_s}.  Both thus read as at the
    reference host speed.  [trace]: also replay the first scenario
    seed traced, check its exact counts equal the untraced run's, and
    measure the layers. *)

val json_line : result -> trace:bool -> string
(** The result line: [correct], [attempted], [failed], and [metrics]
    holding {!gated} (untraced) or every per-layer metric (traced). *)

val pp_report : Format.formatter -> result -> unit
(** Every metric by name, value, unit, sample count and exactness, one
    per line, plus the correctness verdict. *)
