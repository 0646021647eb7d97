(* Shared machinery for the instruction-set reliability studies
   (Figs 7, 9, 10): compile a benchmark suite for an instruction set on a
   device through the compiler pipeline and measure the paper's metric. *)

type metric =
  | Hop  (** heavy-output probability (QV) *)
  | Xed  (** cross-entropy difference (QAOA) *)
  | Xeb_fidelity  (** normalized linear XEB (FH) *)
  | State_fidelity  (** <psi_ideal | rho | psi_ideal> (QFT success) *)

let metric_name = function
  | Hop -> "HOP"
  | Xed -> "XED"
  | Xeb_fidelity -> "XEB fid"
  | State_fidelity -> "success"

type result = {
  isa_name : string;
  mean_metric : float;
  mean_twoq : float;  (** mean hardware two-qubit gates per circuit *)
  mean_swaps : float;
  mean_duration : float;  (** mean timed-executable length, seconds *)
  mean_esp : float;  (** mean analytic estimated success probability *)
}

type evaluation = {
  value : float;
  twoq : int;
  swaps : int;
  duration : float;
  esp : float;
}

(* Analytic ESP of a compiled executable: Metrics.Esp over the compiled
   schedule, with calibration data mapped into the compact space. *)
let esp ~device (compiled : Compiler.Pipeline.compiled) =
  let cal = Device.calibration device in
  let dev q = compiled.Compiler.Pipeline.qubit_map.(q) in
  (Metrics.Esp.estimate ~twoq_errors:compiled.Compiler.Pipeline.twoq_errors
     ~oneq_error:(fun q -> Device.Calibration.oneq_error cal (dev q))
     ~t1:(fun q -> Device.Calibration.t1 cal (dev q))
     ~t2:(fun q -> Device.Calibration.t2 cal (dev q))
     compiled.Compiler.Pipeline.schedule)
    .Metrics.Esp.esp

(* Evaluate one circuit. *)
let evaluate_circuit ?(options = Compiler.Pipeline.default_options) ~device ~isa ~metric
    circuit =
  let compiled = Compiler.Pipeline.compile ~options ~device ~isa circuit in
  let nm = Compiler.Pipeline.noise_model ~device compiled in
  let value =
    match metric with
    | Hop | Xed | Xeb_fidelity ->
      let ideal = Sim.State.probabilities (Sim.State.run_circuit circuit) in
      let noisy =
        Compiler.Pipeline.logical_probabilities compiled
          (Sim.Noisy.output_probabilities nm compiled.circuit)
      in
      (match metric with
      | Hop -> Metrics.Hop.probability ~ideal ~noisy
      | Xed -> Metrics.Xed.difference ~ideal ~noisy
      | Xeb_fidelity -> Metrics.Xeb.normalized_fidelity ~ideal ~noisy
      | State_fidelity -> assert false)
    | State_fidelity ->
      (* exact-compiled reference shares placement and routing (neither
         reads the decomposition options), so its noiseless state is the
         logical intent in the compact space *)
      let exact_options =
        { options with approximate = false; exact_threshold = 1.0 -. 1e-8 }
      in
      let reference =
        Compiler.Pipeline.compile ~options:exact_options ~device ~isa circuit
      in
      let ideal_state = Sim.State.run_circuit reference.circuit in
      let rho = Sim.Noisy.run nm compiled.circuit in
      Sim.Density.fidelity_with_pure rho ideal_state
  in
  {
    value;
    twoq = compiled.twoq_count;
    swaps = compiled.swap_count;
    duration = compiled.duration;
    esp = esp ~device compiled;
  }

(* The per-circuit evaluations are independent (the only shared mutable
   state on the path is Decompose.Cache, which is domain-safe), so they
   run on the Domain pool.  Every circuit's value is deterministic and
   the mean is reduced in list order, so the result record is identical
   at every pool size — the determinism test in test_core locks this. *)
let evaluate_suite ?options ?domains ~device ~isa ~metric circuits =
  assert (circuits <> []);
  let n = float_of_int (List.length circuits) in
  let evaluations =
    Concurrent.Domain_pool.map ?domains
      (fun circuit -> evaluate_circuit ?options ~device ~isa ~metric circuit)
      circuits
  in
  let sum_m, sum_g, sum_s, sum_d, sum_e =
    List.fold_left
      (fun (sm, sg, ss, sd, se) e ->
        (sm +. e.value, sg + e.twoq, ss + e.swaps, sd +. e.duration, se +. e.esp))
      (0.0, 0, 0, 0.0, 0.0) evaluations
  in
  {
    isa_name = Isa.Set.name isa;
    mean_metric = sum_m /. n;
    mean_twoq = float_of_int sum_g /. n;
    mean_swaps = float_of_int sum_s /. n;
    mean_duration = sum_d /. n;
    mean_esp = sum_e /. n;
  }

let result_row r =
  [
    r.isa_name;
    Report.f4 r.mean_metric;
    Report.f2 r.mean_twoq;
    Report.f2 r.mean_swaps;
    Printf.sprintf "%.1f" (1e9 *. r.mean_duration);
    Report.f4 r.mean_esp;
  ]

let results_header ~metric =
  [ "ISA"; metric_name metric; "2Q gates"; "SWAPs"; "dur (ns)"; "ESP" ]

let results_table ~metric results =
  Report.Table { header = results_header ~metric; rows = List.map result_row results }

let add_results b ~metric results =
  Report.Builder.table b ~header:(results_header ~metric) (List.map result_row results)

let add_pass_metrics b metrics =
  Report.Builder.table b ~header:Compiler.Pipeline.header (Compiler.Pipeline.rows metrics)
