(** End-to-end compilation: place, route, NuOp-decompose with noise
    adaptivity across gate types, compact and schedule — the fixed
    {!Pass.stack}, run with per-pass metrics. *)

type options = Pass.options = {
  nuop : Decompose.Nuop.options;
  approximate : bool;
  exact_threshold : float;
  adaptive : bool;
  optimize : bool;
}

val default_options : options

type compiled = {
  circuit : Qcir.Circuit.t;
  twoq_errors : float array;
  qubit_map : int array;
  final_layout : int array;
  n_logical : int;
  swap_count : int;
  twoq_count : int;
  isa : Isa.Set.t;
  schedule : Schedule.t;
      (** timed executable of [circuit] over calibrated per-gate-type
          durations (compact space, like the circuit) *)
  duration : float;  (** [Schedule.total_duration schedule], seconds *)
  critical_depth : int;  (** [Schedule.depth schedule]: moment count *)
}

type pass_metrics = {
  pass_name : string;
  time_s : float;  (** wall time of the pass body *)
  oneq_before : int;
  oneq_after : int;
  twoq_before : int;
  twoq_after : int;
  swaps_before : int;
  swaps_after : int;
  depth_before : int;
  depth_after : int;
  duration_before : float;  (** timed-executable length before the pass, s *)
  duration_after : float;
  cache_hits : int;
  cache_misses : int;
  cache_warm_hits : int;
      (** subset of [cache_hits] served from a loaded cache snapshot;
          rendered in the trace table only when non-zero, so cold runs
          print exactly as before *)
}

val compile :
  ?options:options ->
  device:Device.t ->
  isa:Isa.Set.t ->
  ?placement:int array ->
  Qcir.Circuit.t ->
  compiled
(** Run {!Pass.stack} [options] and extract the compiled result.
    Raises [Invalid_argument] as {!Pass.Context.create} does. *)

val compile_with_metrics :
  ?options:options ->
  device:Device.t ->
  isa:Isa.Set.t ->
  ?placement:int array ->
  Qcir.Circuit.t ->
  compiled * pass_metrics list
(** Like {!compile}, also returning one metrics record per pass. *)

(** A header and rows for a [Core.Report] table of the per-pass metrics
    (also the CLI's [compile --trace-passes]). *)

val header : string list
val rows : pass_metrics list -> string list list

val noise_model : device:Device.t -> compiled -> Sim.Noisy.noise_model

val logical_probabilities : compiled -> float array -> float array
(** Map compact-space output probabilities back to logical qubit order,
    marginalizing routing scratch qubits. *)
