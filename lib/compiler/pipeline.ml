(* End-to-end compilation: place -> route -> NuOp-decompose with noise
   adaptivity across gate types (Fig 1's toolflow), expressed as the
   default pass stack over Pass / Pass_manager.

   The output circuit is renumbered onto the qubits it actually touches
   so the exact density simulator works on the smallest space, while the
   noise model keeps per-instruction error rates measured on the original
   device edges. *)

type options = Pass.options = {
  nuop : Decompose.Nuop.options;
  approximate : bool;  (** Eq 2 approximate mode vs exact thresholded mode *)
  exact_threshold : float;
  adaptive : bool;  (** noise adaptivity across gate types *)
}

let default_options = Pass.default_options

type compiled = {
  circuit : Qcir.Circuit.t;  (** compact qubits, hardware gates only *)
  twoq_errors : float array;  (** per instruction index (0.0 for 1Q) *)
  qubit_map : int array;  (** compact qubit -> device qubit *)
  final_layout : int array;  (** logical qubit -> compact qubit at readout *)
  n_logical : int;
  swap_count : int;
  twoq_count : int;
  isa : Isa.Set.t;
  schedule : Schedule.t;  (** timed executable over calibrated durations *)
  duration : float;  (** [Schedule.total_duration schedule], seconds *)
  critical_depth : int;  (** [Schedule.depth schedule]: moment count *)
}

let compiled_of_context (ctx : Pass.Context.t) =
  let open Pass.Context in
  if not ctx.compacted then
    invalid_arg "Pipeline: the pass stack must include the compact pass";
  (* stacks without the schedule pass still yield a timed executable *)
  let schedule =
    match ctx.schedule with Some s -> s | None -> Pass.timed_schedule ctx
  in
  {
    circuit = ctx.circuit;
    twoq_errors = ctx.errors;
    qubit_map = ctx.qubit_map;
    final_layout = ctx.final_layout;
    n_logical = ctx.n_logical;
    swap_count = ctx.swap_count;
    twoq_count = Qcir.Circuit.two_qubit_count ctx.circuit;
    isa = ctx.isa;
    schedule;
    duration = Schedule.total_duration schedule;
    critical_depth = Schedule.depth schedule;
  }

let compile_with_metrics ?(options = default_options) ?(stack = Pass.default_stack)
    ~device ~isa ?placement circuit =
  let ctx = Pass.Context.create ~options ~device ~isa ?placement circuit in
  let metrics = Pass_manager.run stack ctx in
  (compiled_of_context ctx, metrics)

let compile ?options ?stack ~device ~isa ?placement circuit =
  fst (compile_with_metrics ?options ?stack ~device ~isa ?placement circuit)

let noise_model ~device compiled =
  let cal = Device.calibration device in
  {
    Sim.Noisy.twoq_error =
      (fun index _instr ->
        assert (index >= 0 && index < Array.length compiled.twoq_errors);
        compiled.twoq_errors.(index));
    oneq_error = (fun q -> Device.Calibration.oneq_error cal compiled.qubit_map.(q));
    readout_error = (fun q -> Device.Calibration.readout_error cal compiled.qubit_map.(q));
    t1 = (fun q -> Device.Calibration.t1 cal compiled.qubit_map.(q));
    t2 = (fun q -> Device.Calibration.t2 cal compiled.qubit_map.(q));
    duration_1q = Device.Calibration.duration_1q cal;
    duration_2q = Device.Calibration.duration_2q cal;
  }

(* Map a compact-space probability vector back to logical qubit order:
   logical qubit l is read out at compact position final_layout(l);
   unoccupied compact qubits (routing scratch) are marginalized out —
   they carry no logical information. *)
let logical_probabilities compiled probs =
  let n_compact = Array.length compiled.qubit_map in
  assert (Array.length probs = 1 lsl n_compact);
  let nl = compiled.n_logical in
  let out = Array.make (1 lsl nl) 0.0 in
  Array.iteri
    (fun idx p ->
      let x = ref 0 in
      for l = 0 to nl - 1 do
        if (idx lsr compiled.final_layout.(l)) land 1 = 1 then x := !x lor (1 lsl l)
      done;
      out.(!x) <- out.(!x) +. p)
    probs;
  out
