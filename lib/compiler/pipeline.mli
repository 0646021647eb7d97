(** End-to-end compilation: place, route, NuOp-decompose with noise
    adaptivity across gate types — a thin wrapper around the default
    {!Pass} stack run by {!Pass_manager}. *)

type options = Pass.options = {
  nuop : Decompose.Nuop.options;
  approximate : bool;
  exact_threshold : float;
  adaptive : bool;
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

val compile :
  ?options:options ->
  ?stack:Pass.t list ->
  device:Device.t ->
  isa:Isa.Set.t ->
  ?placement:int array ->
  Qcir.Circuit.t ->
  compiled
(** Run a pass stack (default {!Pass.default_stack}; it must end with
    the compact pass) and extract the compiled result. *)

val compile_with_metrics :
  ?options:options ->
  ?stack:Pass.t list ->
  device:Device.t ->
  isa:Isa.Set.t ->
  ?placement:int array ->
  Qcir.Circuit.t ->
  compiled * Pass_manager.pass_metrics list
(** Like {!compile}, also returning the per-pass metrics. *)

val compiled_of_context : Pass.Context.t -> compiled
(** Extract the result from a context after a stack ending in the
    compact pass. *)

val noise_model : device:Device.t -> compiled -> Sim.Noisy.noise_model

val logical_probabilities : compiled -> float array -> float array
(** Map compact-space output probabilities back to logical qubit order,
    marginalizing routing scratch qubits. *)
