(* Noisy circuit execution on the exact density simulator.

   Mirrors the paper's Qiskit Aer setup (Sec VI): depolarizing noise
   scaled by the gate error rate after every gate, plus amplitude damping
   (T1) and dephasing (T2) on the acting qubits for the gate duration.
   Readout error is applied classically to the final probabilities.

   The per-instruction two-qubit error rate comes from a caller-supplied
   function (the compiler pipeline computes it from calibration data and
   the chosen hardware gate type), so the simulator stays independent of
   how executables were produced. *)

type noise_model = {
  twoq_error : int -> Qcir.Instr.t -> float;
      (** instruction index and instruction -> depolarizing probability *)
  oneq_error : int -> float;  (** per qubit *)
  readout_error : int -> float;  (** per qubit *)
  t1 : int -> float;
  t2 : int -> float;
  duration_1q : float;
  duration_2q : float;
}

let ideal =
  {
    twoq_error = (fun _ _ -> 0.0);
    oneq_error = (fun _ -> 0.0);
    readout_error = (fun _ -> 0.0);
    t1 = (fun _ -> infinity);
    t2 = (fun _ -> infinity);
    duration_1q = 0.0;
    duration_2q = 0.0;
  }

let apply_decoherence model rho q duration =
  if Float.is_finite (model.t1 q) && duration > 0.0 then begin
    let gamma, lambda =
      Channel.damping_params ~t1:(model.t1 q) ~t2:(model.t2 q) ~duration
    in
    if gamma > 0.0 then
      Density.apply_channel rho (Channel.amplitude_damping gamma) [| q |];
    if lambda > 0.0 then
      Density.apply_channel rho (Channel.phase_damping lambda) [| q |]
  end

let run model circuit =
  let rho = Density.create (Qcir.Circuit.n_qubits circuit) in
  let index = ref 0 in
  Qcir.Circuit.iter
    (fun instr ->
      Density.apply_instr rho instr;
      let qs = Qcir.Instr.qubits instr in
      (match Array.length qs with
      | 1 ->
        let p = model.oneq_error qs.(0) in
        if p > 0.0 then Density.apply_channel rho (Channel.depolarizing_1q p) qs;
        apply_decoherence model rho qs.(0) model.duration_1q
      | 2 ->
        let p = model.twoq_error !index instr in
        if p > 0.0 then Density.apply_channel rho (Channel.depolarizing_2q p) qs;
        Array.iter (fun q -> apply_decoherence model rho q model.duration_2q) qs
      | _ -> invalid_arg "Noisy.run: gates beyond two qubits are not supported");
      incr index)
    circuit;
  rho

(* Schedule-aware execution over the shared timed executable
   (Schedule.t): decoherence acts on EVERY qubit for each moment's
   duration — idle qubits decay too, as on real hardware.  [run] above
   is the cheaper acting-qubits-only approximation.  Without an explicit
   schedule the model's two device-wide scalars time the moments (the
   pre-refactor behaviour, bit for bit); the compiler passes its
   calibrated per-gate-type schedule instead. *)
let model_schedule model circuit =
  Schedule.of_circuit circuit ~durations:(fun _ instr ->
      match Qcir.Instr.arity instr with
      | 1 -> model.duration_1q
      | 2 -> model.duration_2q
      | _ -> invalid_arg "Noisy.run_scheduled: gates beyond two qubits unsupported")

let run_scheduled ?schedule model circuit =
  let sched =
    match schedule with Some s -> s | None -> model_schedule model circuit
  in
  let n = Qcir.Circuit.n_qubits circuit in
  let rho = Density.create n in
  Schedule.iter_moments
    (fun moment ->
      List.iter
        (fun (idx, instr) ->
          Density.apply_instr rho instr;
          let qs = Qcir.Instr.qubits instr in
          match Array.length qs with
          | 1 ->
            let p = model.oneq_error qs.(0) in
            if p > 0.0 then Density.apply_channel rho (Channel.depolarizing_1q p) qs
          | 2 ->
            let p = model.twoq_error idx instr in
            if p > 0.0 then Density.apply_channel rho (Channel.depolarizing_2q p) qs
          | _ -> invalid_arg "Noisy.run_scheduled: gates beyond two qubits unsupported")
        moment.Schedule.instrs;
      for q = 0 to n - 1 do
        apply_decoherence model rho q moment.Schedule.duration
      done)
    sched;
  rho

let output_probabilities model circuit =
  let rho = run model circuit in
  let n = Density.n_qubits rho in
  let probs = Density.probabilities rho in
  let error_rates = Array.init n model.readout_error in
  if Array.exists (fun e -> e > 0.0) error_rates then
    Channel.apply_readout_error ~error_rates probs
  else probs
