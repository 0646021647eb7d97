(** Shared machinery for the instruction-set reliability studies. *)

type metric = Hop | Xed | Xeb_fidelity | State_fidelity

val metric_name : metric -> string

type result = {
  isa_name : string;
  mean_metric : float;
  mean_twoq : float;
  mean_swaps : float;
  mean_duration : float;  (** mean timed-executable length, seconds *)
  mean_esp : float;  (** mean analytic estimated success probability *)
}

type evaluation = {
  value : float;  (** the metric *)
  twoq : int;  (** hardware two-qubit gate count *)
  swaps : int;
  duration : float;  (** timed-executable length, seconds *)
  esp : float;  (** analytic estimated success probability *)
}

val esp : device:Device.t -> Compiler.Pipeline.compiled -> float
(** {!Metrics.Esp.estimate} over the compiled schedule with the device's
    calibration data (readout excluded, matching density-sim state
    fidelities). *)

val evaluate_circuit :
  ?options:Compiler.Pipeline.options ->
  device:Device.t ->
  isa:Isa.Set.t ->
  metric:metric ->
  Qcir.Circuit.t ->
  evaluation
(** Metric value plus gate/SWAP counts, duration and ESP for one
    circuit, compiled with [options] (the peepholes run when
    [options.optimize] is set).  Raises [Invalid_argument] as
    {!Compiler.Pipeline.compile} does. *)

val evaluate_suite :
  ?options:Compiler.Pipeline.options ->
  ?domains:int ->
  device:Device.t ->
  isa:Isa.Set.t ->
  metric:metric ->
  Qcir.Circuit.t list ->
  result
(** Evaluates the circuits on the Domain pool ([domains] defaults to
    {!Concurrent.Domain_pool.default_domains}); the result record is identical at every
    pool size, including the sequential fallback at pool size 1. *)

val result_row : result -> string list
val results_header : metric:metric -> string list

val results_table : metric:metric -> result list -> Report.block
(** The results as a typed table block for a {!Report.doc}. *)

val add_results : Report.Builder.t -> metric:metric -> result list -> unit

val add_pass_metrics :
  Report.Builder.t -> Compiler.Pipeline.pass_metrics list -> unit
