(* Noisy circuit execution on the exact density simulator.

   Mirrors the paper's Qiskit Aer setup (Sec VI): depolarizing noise
   scaled by the gate error rate after every gate, plus amplitude damping
   (T1) and dephasing (T2) on the acting qubits for the gate duration.
   Readout error is applied classically to the final probabilities.
   [run] is the one density runner: every study, figure and served reply
   simulates through it.

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

(* The distinct channels of one run.  A circuit applies few distinct
   channels many times (a mean perfbench study item applies 214, about 8
   of them distinct), so each is built by its Channel constructor (Kraus
   set, trace check, superoperator) and prepared for its kernel on first
   use, and its prepared superoperator reused after.  The key is the
   constructor and its exact parameter.  Each run owns its table:
   nothing is shared across runs or domains, and every run of a circuit
   allocates alike. *)
type kind = Depolarizing_1q | Depolarizing_2q | Amplitude_damping | Phase_damping

let constructor = function
  | Depolarizing_1q -> Channel.depolarizing_1q
  | Depolarizing_2q -> Channel.depolarizing_2q
  | Amplitude_damping -> Channel.amplitude_damping
  | Phase_damping -> Channel.phase_damping

let channels_prepared = Obs.Counter.create "sim.density.channels_prepared"

let apply_channel channels rho kind param qubits =
  let s =
    match Hashtbl.find_opt channels (kind, param) with
    | Some s -> s
    | None ->
      let s = State.prepare (Channel.superoperator (constructor kind param)) in
      Obs.Counter.incr channels_prepared;
      Hashtbl.add channels (kind, param) s;
      s
  in
  Density.apply_superoperator rho s qubits

let apply_decoherence model channels rho q duration =
  if Float.is_finite (model.t1 q) && duration > 0.0 then begin
    let gamma, lambda =
      Channel.damping_params ~t1:(model.t1 q) ~t2:(model.t2 q) ~duration
    in
    if gamma > 0.0 then apply_channel channels rho Amplitude_damping gamma [| q |];
    if lambda > 0.0 then apply_channel channels rho Phase_damping lambda [| q |]
  end

let run model circuit =
  Obs.Span.with_ "sim.density.run" @@ fun () ->
  let rho = Density.create (Qcir.Circuit.n_qubits circuit) in
  let channels = Hashtbl.create 16 in
  let index = ref 0 in
  Qcir.Circuit.iter
    (fun instr ->
      Density.apply_instr rho instr;
      let qs = Qcir.Instr.qubits instr in
      (match Array.length qs with
      | 1 ->
        let p = model.oneq_error qs.(0) in
        if p > 0.0 then apply_channel channels rho Depolarizing_1q p qs;
        apply_decoherence model channels rho qs.(0) model.duration_1q
      | 2 ->
        let p = model.twoq_error !index instr in
        if p > 0.0 then apply_channel channels rho Depolarizing_2q p qs;
        Array.iter (fun q -> apply_decoherence model channels rho q model.duration_2q) qs
      | _ -> invalid_arg "Noisy.run: gates beyond two qubits are not supported");
      incr index)
    circuit;
  rho

let output_probabilities model circuit =
  let rho = run model circuit in
  let n = Density.n_qubits rho in
  let probs = Density.probabilities rho in
  let error_rates = Array.init n model.readout_error in
  if Array.exists (fun e -> e > 0.0) error_rates then
    Channel.apply_readout_error ~error_rates probs
  else probs
