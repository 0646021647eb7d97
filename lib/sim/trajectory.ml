(* Monte Carlo (quantum trajectory) simulation for circuits too large for
   the exact density simulator (the paper's 10- and 20-qubit
   Fermi-Hubbard runs, Fig 10f).

   Depolarizing noise: with probability p insert a uniformly random
   non-identity Pauli on the gate's qubits.  Amplitude and phase damping:
   proper Kraus trajectories — branch on K0/K1 with the state-dependent
   probabilities and renormalize.  Expectations over trajectories converge
   to the density-operator result. *)

open Linalg

type noise_model = Noisy.noise_model

let apply_pauli rng state qubits =
  (* pick a uniformly random non-identity Pauli string on the qubits *)
  let k = Array.length qubits in
  let n_paulis = (1 lsl (2 * k)) - 1 in
  let pick = 1 + Rng.int rng n_paulis in
  Array.iteri
    (fun j q ->
      let idx = (pick lsr (2 * j)) land 3 in
      if idx <> 0 then State.apply_matrix state (Gates.Oneq.pauli_of_index idx) [| q |])
    qubits

(* One-pass amplitude damping: P(decay) = gamma * P(qubit excited).
   K1 moves each |..1..> amplitude to |..0..>; K0 scales the excited
   amplitudes by sqrt(1-gamma).  Both branches renormalize. *)
let apply_amplitude_damping rng state q gamma =
  let dim = State.dim state in
  let bit = 1 lsl q in
  let p_excited = ref 0.0 in
  for idx = 0 to dim - 1 do
    if idx land bit <> 0 then p_excited := !p_excited +. State.probability state idx
  done;
  let p_decay = gamma *. !p_excited in
  if Rng.float rng < p_decay then begin
    for idx = 0 to dim - 1 do
      if idx land bit <> 0 then begin
        State.set_amplitude state (idx lxor bit) (State.amplitude state idx);
        State.set_amplitude state idx Complex.zero
      end
    done;
    State.normalize state
  end
  else begin
    let scale = Float.sqrt (1.0 -. gamma) in
    for idx = 0 to dim - 1 do
      if idx land bit <> 0 then begin
        let a = State.amplitude state idx in
        State.set_amplitude state idx (Linalg.Cplx.scale scale a)
      end
    done;
    State.normalize state
  end

(* Phase damping with parameter lambda equals a phase-flip channel with
   probability p = (1 - sqrt(1 - lambda)) / 2 — a cheap stochastic Z. *)
let apply_phase_damping rng state q lambda =
  let p = (1.0 -. Float.sqrt (1.0 -. lambda)) /. 2.0 in
  if Rng.float rng < p then State.apply_matrix state Gates.Oneq.z [| q |]

let apply_decoherence rng (model : noise_model) state q duration =
  if Float.is_finite (model.t1 q) && duration > 0.0 then begin
    let gamma, lambda =
      Channel.damping_params ~t1:(model.t1 q) ~t2:(model.t2 q) ~duration
    in
    if gamma > 0.0 then apply_amplitude_damping rng state q gamma;
    if lambda > 0.0 then apply_phase_damping rng state q lambda
  end

let run_one rng (model : noise_model) circuit =
  let state = State.create (Qcir.Circuit.n_qubits circuit) in
  let index = ref 0 in
  Qcir.Circuit.iter
    (fun instr ->
      State.apply_instr state instr;
      let qs = Qcir.Instr.qubits instr in
      (match Array.length qs with
      | 1 ->
        let p = model.oneq_error qs.(0) in
        if p > 0.0 && Rng.float rng < p then apply_pauli rng state qs;
        apply_decoherence rng model state qs.(0) model.duration_1q
      | 2 ->
        let p = model.twoq_error !index instr in
        if p > 0.0 && Rng.float rng < p then apply_pauli rng state qs;
        Array.iter (fun q -> apply_decoherence rng model state q model.duration_2q) qs
      | _ -> invalid_arg "Trajectory.run_one: gates beyond two qubits unsupported");
      incr index)
    circuit;
  state

(* Mean linear cross-entropy overlap with an ideal state:
   E_traj[ sum_x p_traj(x) p_ideal(x) ], from a private stream seeded 5. *)
let mean_ideal_overlap ~trajectories model circuit ~ideal =
  assert (trajectories > 0);
  Obs.Span.with_ "sim.trajectory.run" @@ fun () ->
  let rng = Rng.create 5 in
  let dim = State.dim ideal in
  let acc = ref 0.0 in
  for _ = 1 to trajectories do
    let s = run_one rng model circuit in
    let overlap = ref 0.0 in
    for x = 0 to dim - 1 do
      overlap := !overlap +. (State.probability s x *. State.probability ideal x)
    done;
    acc := !acc +. !overlap
  done;
  !acc /. float_of_int trajectories
