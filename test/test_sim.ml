(* Tests for the simulators: state vector, channels, density operator,
   noisy execution and trajectories, plus the properties running the
   three simulators against each other. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_loose = Alcotest.(check (float 1e-6))

(* ---------- State ---------- *)

let test_state_init () =
  let s = Sim.State.create 3 in
  check_float "p(0)" 1.0 (Sim.State.probability s 0);
  check_float "norm" 1.0 (Sim.State.norm2 s)

let test_state_basis () =
  let s = Sim.State.of_basis 3 5 in
  check_float "p(5)" 1.0 (Sim.State.probability s 5)

let test_state_x_flip () =
  let s = Sim.State.create 2 in
  Sim.State.apply_matrix s Gates.Oneq.x [| 0 |];
  check_float "p(1)" 1.0 (Sim.State.probability s 1);
  Sim.State.apply_matrix s Gates.Oneq.x [| 1 |];
  check_float "p(3)" 1.0 (Sim.State.probability s 3)

let test_state_bell () =
  let s = Sim.State.create 2 in
  Sim.State.apply_matrix s Gates.Oneq.h [| 0 |];
  (* CNOT with control on qubit 0 (matrix MSB = first listed qubit) *)
  Sim.State.apply_matrix s Gates.Twoq.cnot [| 0; 1 |];
  check_loose "p(00)" 0.5 (Sim.State.probability s 0);
  check_loose "p(11)" 0.5 (Sim.State.probability s 3);
  check_loose "p(01)" 0.0 (Sim.State.probability s 1)

let test_state_qubit_ordering () =
  (* CNOT control = first listed qubit: |10> (qubit 1 set) with gate on
     [1; 0] flips qubit 0 *)
  let s = Sim.State.of_basis 2 2 in
  Sim.State.apply_matrix s Gates.Twoq.cnot [| 1; 0 |];
  check_float "p(11)" 1.0 (Sim.State.probability s 3)

let test_state_matches_kron_embedding () =
  (* applying u on qubit 1 of 3 equals the full kron matrix I (x) u (x) I
     (with qubit 0 least significant -> kron order I2 u I0) *)
  let rng = Rng.create 3 in
  let u = Qr.haar_unitary rng 2 in
  let full = Mat.kron (Mat.identity 2) (Mat.kron u (Mat.identity 2)) in
  let s1 = Sim.State.create 3 in
  Sim.State.apply_matrix s1 Gates.Oneq.h [| 0 |];
  Sim.State.apply_matrix s1 Gates.Oneq.h [| 2 |];
  let s2 = Sim.State.copy s1 in
  Sim.State.apply_matrix s1 u [| 1 |];
  Sim.State.apply_matrix s2 full [| 2; 1; 0 |];
  check_loose "same state" 1.0 (Sim.State.fidelity_pure s1 s2)

let test_state_norm_preserved () =
  let rng = Rng.create 4 in
  let c = Apps.Qv.circuit rng 4 in
  let s = Sim.State.run_circuit c in
  check_loose "norm" 1.0 (Sim.State.norm2 s)

let test_state_inner () =
  let a = Sim.State.of_basis 2 1 and b = Sim.State.of_basis 2 1 in
  check_float "self" 1.0 (Sim.State.inner a b).re;
  let c = Sim.State.of_basis 2 2 in
  check_float "orthogonal" 0.0 (Complex.norm (Sim.State.inner a c))

(* [apply_matrix] refuses arguments it cannot apply before it touches
   the state: the kernels index without bounds checks. *)
let refused name msg matrix qubits =
  let s = Sim.State.create 3 in
  Sim.State.apply_matrix s Gates.Oneq.h [| 0 |];
  let before = Sim.State.probabilities s in
  Alcotest.check_raises name (Invalid_argument msg) (fun () ->
      Sim.State.apply_matrix s matrix qubits);
  check_bool (name ^ ": state untouched") true (before = Sim.State.probabilities s)

let test_state_qubit_out_of_range () =
  refused "past the top" "State.apply_matrix: qubit 3 out of range for 3 qubits"
    Gates.Twoq.cnot [| 0; 3 |];
  refused "negative" "State.apply_matrix: qubit -1 out of range for 3 qubits" Gates.Oneq.x
    [| -1 |]

let test_state_qubit_repeated () =
  (* a repeated qubit once passed every check and corrupted the state *)
  refused "cnot on [1; 1]" "State.apply_matrix: qubit 1 listed twice" Gates.Twoq.cnot [| 1; 1 |];
  refused "3 qubits, one twice" "State.apply_matrix: qubit 0 listed twice"
    (Mat.identity 8) [| 0; 2; 0 |]

let test_state_matrix_size () =
  refused "4x4 on one qubit" "State.apply_matrix: 1 qubit(s) take a 2x2 matrix, not 4x4"
    Gates.Twoq.cnot [| 0 |];
  refused "2x2 on two qubits" "State.apply_matrix: 2 qubit(s) take a 4x4 matrix, not 2x2"
    Gates.Oneq.x [| 0; 1 |];
  refused "4x2" "State.apply_matrix: 1 qubit(s) take a 2x2 matrix, not 4x2" (Mat.zero 4 2)
    [| 0 |]

(* [apply_prepared] checks its arguments as [apply_matrix] does, against
   the prepared matrix's size, before it touches the state. *)
let test_state_prepared_refused () =
  let s = Sim.State.create 3 in
  Sim.State.apply_matrix s Gates.Oneq.h [| 0 |];
  let before = Sim.State.probabilities s in
  let real = Sim.State.prepare (Mat.identity 4) and wide = Sim.State.prepare (Mat.identity 16) in
  List.iter
    (fun (name, msg, p, qubits) ->
      Alcotest.check_raises name (Invalid_argument ("State.apply_prepared: " ^ msg)) (fun () ->
          Sim.State.apply_prepared s p qubits))
    [
      ("real 4x4 on one qubit", "1 qubit(s) take a 2x2 matrix, not 4x4", real, [| 0 |]);
      ("real 4x4 on [1; 1]", "qubit 1 listed twice", real, [| 1; 1 |]);
      ("16x16 on two qubits", "2 qubit(s) take a 4x4 matrix, not 16x16", wide, [| 0; 1 |]);
      ("16x16 past the top", "qubit 3 out of range for 3 qubits", wide, [| 0; 1; 2; 3 |]);
    ];
  check_bool "state untouched" true (before = Sim.State.probabilities s)

(* ---------- Channel ---------- *)

let test_channel_trace_preserving_check () =
  Alcotest.check_raises "not tp" (Invalid_argument "Channel.make: bad is not trace preserving")
    (fun () -> ignore (Sim.Channel.make "bad" [ Gates.Oneq.h; Gates.Oneq.h ]))

let test_channel_constructors () =
  (* constructors validate completeness internally *)
  ignore (Sim.Channel.depolarizing_1q 0.3);
  ignore (Sim.Channel.depolarizing_2q 0.2);
  ignore (Sim.Channel.amplitude_damping 0.4);
  ignore (Sim.Channel.phase_damping 0.25);
  check_bool "ok" true true

let test_damping_params () =
  let gamma, lambda = Sim.Channel.damping_params ~t1:20e-6 ~t2:10e-6 ~duration:1e-6 in
  check_bool "gamma" true (Float.abs (gamma -. (1.0 -. Float.exp (-0.05))) < 1e-9);
  check_bool "lambda pos" true (lambda > 0.0)

let test_readout_error () =
  (* deterministic |0> with 10% flip on one qubit *)
  let probs = [| 1.0; 0.0 |] in
  let out = Sim.Channel.apply_readout_error ~error_rates:[| 0.1 |] probs in
  check_float "p0" 0.9 out.(0);
  check_float "p1" 0.1 out.(1)

let test_readout_preserves_total () =
  let probs = [| 0.3; 0.2; 0.4; 0.1 |] in
  let out = Sim.Channel.apply_readout_error ~error_rates:[| 0.05; 0.08 |] probs in
  check_loose "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 out)

(* The superoperator as it was built before it was summed in place:
   whole Kronecker products, added in Kraus order. *)
let reference_superoperator ch =
  let d = Mat.rows (List.hd (Sim.Channel.kraus ch)) in
  List.fold_left
    (fun acc k -> Mat.add acc (Mat.kron k (Mat.conj k)))
    (Mat.zero (d * d) (d * d))
    (Sim.Channel.kraus ch)

(* Real, and zero off the diagonal and anti-diagonal: the shape the
   density simulator's real kernel for one-qubit channels relies on. *)
let real_x_shaped m =
  Mat.rows m = 4
  && List.for_all
       (fun (r, c) ->
         let z = Mat.get m r c in
         z.Complex.im = 0.0 && (c = r || c = 3 - r || z.Complex.re = 0.0))
       (List.concat_map (fun r -> List.init 4 (fun c -> (r, c))) (List.init 4 Fun.id))

let test_superoperator_in_place () =
  let bits m = Array.map Int64.bits_of_float (Mat.unsafe_data m) in
  List.iter
    (fun p ->
      List.iter
        (fun (name, build, one_qubit) ->
          let ch = build p in
          let s = Sim.Channel.superoperator ch in
          let label what = Printf.sprintf "%s %g: %s" name p what in
          check_bool (label "bits of the Kraus fold") true
            (bits s = bits (reference_superoperator ch));
          if one_qubit then check_bool (label "real kernel's shape") true (real_x_shaped s))
        [
          ("depolarizing_1q", Sim.Channel.depolarizing_1q, true);
          ("depolarizing_2q", Sim.Channel.depolarizing_2q, false);
          ("amplitude_damping", Sim.Channel.amplitude_damping, true);
          ("phase_damping", Sim.Channel.phase_damping, true);
        ])
    [ 0.0; 1e-4; 1e-3; 0.02; 0.3; 1.0 ]

(* ---------- Density ---------- *)

(* The per-instruction reference path: build the channel, then prepare
   and apply its superoperator. *)
let apply_channel rho channel qubits =
  Sim.Density.apply_superoperator rho
    (Sim.State.prepare (Sim.Channel.superoperator channel))
    qubits

let test_density_pure_init () =
  let rho = Sim.Density.create 2 in
  check_float "trace" 1.0 (Sim.Density.trace rho).re;
  check_float "purity" 1.0 (Sim.Density.purity rho);
  check_float "p(0)" 1.0 (Sim.Density.probability rho 0)

let test_density_matches_statevector () =
  let rng = Rng.create 6 in
  let c = Apps.Qv.circuit rng 3 in
  let sv_probs = Sim.State.probabilities (Sim.State.run_circuit c) in
  let rho_probs = Sim.Density.probabilities (Sim.Density.run_circuit c) in
  Array.iteri (fun k p -> check_loose "prob" p rho_probs.(k)) sv_probs

let test_density_purity_preserved_by_unitaries () =
  let rng = Rng.create 7 in
  let c = Apps.Qv.circuit rng 3 in
  let rho = Sim.Density.run_circuit c in
  check_loose "purity 1" 1.0 (Sim.Density.purity rho)

let test_density_depolarizing_mixes () =
  let rho = Sim.Density.create 1 in
  apply_channel rho (Sim.Channel.depolarizing_1q 0.75) [| 0 |];
  (* p = 3/4 uniform-Pauli depolarizing fully mixes a single qubit *)
  check_loose "p0" 0.5 (Sim.Density.probability rho 0);
  check_loose "purity" 0.5 (Sim.Density.purity rho);
  check_loose "trace" 1.0 (Sim.Density.trace rho).re

let test_density_channel_preserves_trace () =
  let rng = Rng.create 8 in
  let c = Apps.Qv.circuit rng 2 in
  let rho = Sim.Density.run_circuit c in
  apply_channel rho (Sim.Channel.depolarizing_2q 0.1) [| 0; 1 |];
  apply_channel rho (Sim.Channel.amplitude_damping 0.2) [| 1 |];
  apply_channel rho (Sim.Channel.phase_damping 0.15) [| 0 |];
  check_loose "trace 1" 1.0 (Sim.Density.trace rho).re

let test_density_amplitude_damping_fixed_point () =
  (* |1> decays toward |0> *)
  let rho = Sim.Density.create 1 in
  Sim.Density.apply_unitary rho Gates.Oneq.x [| 0 |];
  apply_channel rho (Sim.Channel.amplitude_damping 0.3) [| 0 |];
  check_loose "p1" 0.7 (Sim.Density.probability rho 1);
  apply_channel rho (Sim.Channel.amplitude_damping 1.0) [| 0 |];
  check_loose "fully decayed" 1.0 (Sim.Density.probability rho 0)

let test_density_of_statevector () =
  let s = Sim.State.create 2 in
  Sim.State.apply_matrix s Gates.Oneq.h [| 0 |];
  let rho = Sim.Density.of_statevector s in
  check_loose "fidelity" 1.0 (Sim.Density.fidelity_with_pure rho s);
  check_loose "purity" 1.0 (Sim.Density.purity rho)

(* ---------- Noisy ---------- *)

let noise_with ?(twoq = 0.0) ?(oneq = 0.0) ?(readout = 0.0) () =
  {
    Sim.Noisy.twoq_error = (fun _ _ -> twoq);
    oneq_error = (fun _ -> oneq);
    readout_error = (fun _ -> readout);
    t1 = (fun _ -> infinity);
    t2 = (fun _ -> infinity);
    duration_1q = 0.0;
    duration_2q = 0.0;
  }

let test_noisy_ideal_matches_pure () =
  let rng = Rng.create 9 in
  let c = Apps.Qv.circuit rng 3 in
  let probs = Sim.Noisy.output_probabilities Sim.Noisy.ideal c in
  let expect = Sim.State.probabilities (Sim.State.run_circuit c) in
  Array.iteri (fun k p -> check_loose "prob" p probs.(k)) expect

let test_noisy_reduces_purity () =
  let rng = Rng.create 10 in
  let c = Apps.Qv.circuit rng 3 in
  let rho = Sim.Noisy.run (noise_with ~twoq:0.05 ()) c in
  check_bool "purity < 1" true (Sim.Density.purity rho < 0.999)

let test_noisy_trace_one () =
  let rng = Rng.create 11 in
  let c = Apps.Qaoa.circuit rng 3 in
  let rho = Sim.Noisy.run (noise_with ~twoq:0.03 ~oneq:0.005 ()) c in
  check_loose "trace" 1.0 (Sim.Density.trace rho).re

let test_noisy_more_error_less_fidelity () =
  let rng = Rng.create 12 in
  let c = Apps.Qv.circuit rng 3 in
  let ideal = Sim.State.run_circuit c in
  let fid e =
    Sim.Density.fidelity_with_pure (Sim.Noisy.run (noise_with ~twoq:e ()) c) ideal
  in
  let f1 = fid 0.01 and f2 = fid 0.05 and f3 = fid 0.2 in
  check_bool "monotone" true (f1 > f2 && f2 > f3)

(* ---------- acting-qubits runner differential reference ---------- *)

(* T1/T2 decay of qubit [q] over [duration], each channel built afresh. *)
let reference_decoherence (model : Sim.Noisy.noise_model) rho q duration =
  if Float.is_finite (model.Sim.Noisy.t1 q) && duration > 0.0 then begin
    let gamma, lambda =
      Sim.Channel.damping_params ~t1:(model.Sim.Noisy.t1 q) ~t2:(model.Sim.Noisy.t2 q)
        ~duration
    in
    if gamma > 0.0 then
      apply_channel rho (Sim.Channel.amplitude_damping gamma) [| q |];
    if lambda > 0.0 then
      apply_channel rho (Sim.Channel.phase_damping lambda) [| q |]
  end

let full_noise ?(twoq = 0.02) ?(oneq = 0.001) () =
  {
    (noise_with ~twoq ~oneq ~readout:0.01 ()) with
    Sim.Noisy.t1 = (fun q -> 15e-6 +. (1e-6 *. float_of_int q));
    t2 = (fun q -> 11e-6 +. (0.5e-6 *. float_of_int q));
    duration_1q = 25e-9;
    duration_2q = 32e-9;
  }

(* The acting-qubits runner as it was before channels were shared
   within a run: every channel (Kraus set, trace check, superoperator)
   built afresh at every instruction.  [Noisy.run] must reproduce it
   bit for bit. *)
let reference_run (model : Sim.Noisy.noise_model) circuit =
  let rho = Sim.Density.create (Qcir.Circuit.n_qubits circuit) in
  let index = ref 0 in
  Qcir.Circuit.iter
    (fun instr ->
      Sim.Density.apply_instr rho instr;
      let qs = Qcir.Instr.qubits instr in
      (match Array.length qs with
      | 1 ->
        let p = model.Sim.Noisy.oneq_error qs.(0) in
        if p > 0.0 then apply_channel rho (Sim.Channel.depolarizing_1q p) qs;
        reference_decoherence model rho qs.(0) model.Sim.Noisy.duration_1q
      | 2 ->
        let p = model.Sim.Noisy.twoq_error !index instr in
        if p > 0.0 then apply_channel rho (Sim.Channel.depolarizing_2q p) qs;
        Array.iter (fun q -> reference_decoherence model rho q model.Sim.Noisy.duration_2q) qs
      | _ -> Alcotest.fail "reference: >2q gate");
      incr index)
    circuit;
  rho

(* Every density-matrix entry equal bit for bit (signed zeros too). *)
let same_bits a b =
  let n = Sim.Density.n_qubits a in
  let bits x = Int64.bits_of_float x in
  n = Sim.Density.n_qubits b
  && List.for_all
       (fun r ->
         List.for_all
           (fun c ->
             let x = Sim.Density.get a r c and y = Sim.Density.get b r c in
             bits x.re = bits y.re && bits x.im = bits y.im)
           (List.init (1 lsl n) Fun.id))
       (List.init (1 lsl n) Fun.id)

(* All noise on, under three ways of drawing the channel parameters:
   one 2Q rate for every instruction (each channel reused many times), a
   depolarizing rate of its own for every 2Q instruction and every
   qubit (only the damping channels repeat), and equal 1Q and 2Q
   depolarizing rates (two constructors, one parameter). *)
let channel_sharing_models =
  [
    full_noise ();
    {
      (full_noise ()) with
      Sim.Noisy.twoq_error = (fun idx _ -> 0.01 +. (1e-4 *. float_of_int idx));
      oneq_error = (fun q -> 0.001 *. float_of_int (q + 1));
    };
    full_noise ~twoq:0.02 ~oneq:0.02 ();
  ]

let prop_run_matches_reference =
  Proptest.test "run bit-identical to per-instruction channels" ~count:12
    (Proptest.circuit ~n_qubits:3 ())
    (fun c ->
      List.for_all
        (fun model -> same_bits (reference_run model c) (Sim.Noisy.run model c))
        channel_sharing_models)

(* [Noisy.run] prepares each distinct (constructor, parameter) pair once
   per run.  Here: depol1(0.001) and depol2(0.02), and amplitude and
   phase damping for each of the two qubits (their T1 and T2 differ)
   over each of the two gate durations, 2 + 4 + 4 = 10 pairs; a second
   run prepares them again. *)
let test_channels_prepared_count () =
  let counter = Obs.Counter.create "sim.density.channels_prepared" in
  let c =
    Qcir.Circuit.of_instrs 2
      (List.map
         (fun (g, qs) -> Qcir.Instr.make g qs)
         Gates.Gate.
           [ (h, [| 0 |]); (h, [| 1 |]); (cz, [| 0; 1 |]); (h, [| 0 |]); (cz, [| 1; 0 |]) ])
  in
  let prepared_by_run () =
    let before = Obs.Counter.get counter in
    ignore (Sim.Noisy.run (full_noise ~twoq:0.02 ~oneq:0.001 ()) c);
    Obs.Counter.get counter - before
  in
  Alcotest.(check int) "first run" 10 (prepared_by_run ());
  Alcotest.(check int) "second run" 10 (prepared_by_run ())

let test_traced_runs_span_and_match () =
  (* a traced run records the simulators' spans and returns the
     untraced run's bits *)
  let rng = Rng.create 46 in
  let c = Apps.Qaoa.circuit rng 3 in
  let model = full_noise () in
  let ideal = Sim.State.run_circuit c in
  let runs () =
    ( Sim.Noisy.run model c,
      Sim.Trajectory.mean_ideal_overlap ~trajectories:4 model c ~ideal )
  in
  let d0, o0 = runs () in
  let events = ref [] in
  Obs.Sink.install
    { Obs.Sink.emit = (fun ev -> events := ev :: !events); flush = (fun () -> ()) };
  let d1, o1 = Fun.protect ~finally:Obs.Sink.uninstall runs in
  let spans name =
    List.length
      (List.filter
         (function Obs.Span_end { name = n; _ } -> String.equal n name | _ -> false)
         !events)
  in
  Alcotest.(check int) "density spans" 1 (spans "sim.density.run");
  Alcotest.(check int) "trajectory spans" 1 (spans "sim.trajectory.run");
  check_bool "run bits" true (same_bits d0 d1);
  check_bool "overlap bits" true (Int64.bits_of_float o0 = Int64.bits_of_float o1)

(* ---------- Trajectory ---------- *)

(* Mean output probabilities over [trajectories] runs from a stream
   seeded [seed]: the observer that converges to the density-simulator
   diagonal. *)
let mean_probabilities ~seed ~trajectories model circuit =
  let rng = Rng.create seed in
  let dim = 1 lsl Qcir.Circuit.n_qubits circuit in
  let acc = Array.make dim 0.0 in
  for _ = 1 to trajectories do
    let s = Sim.Trajectory.run_one rng model circuit in
    for x = 0 to dim - 1 do
      acc.(x) <- acc.(x) +. Sim.State.probability s x
    done
  done;
  Array.map (fun v -> v /. float_of_int trajectories) acc

(* Kraus trajectory for a single-qubit channel given as [k0; k1]: apply
   K0 with probability ||K0 psi||^2, else K1; renormalize.  The generic
   copy-based reference for the one-pass damping specializations. *)
let apply_kraus_branch rng state kraus q =
  match kraus with
  | [ k0; k1 ] ->
    let trial = Sim.State.copy state in
    Sim.State.apply_matrix trial k0 [| q |];
    let p0 = Sim.State.norm2 trial in
    Sim.State.apply_matrix state (if Rng.float rng < p0 then k0 else k1) [| q |];
    Sim.State.normalize state
  | _ -> Alcotest.fail "apply_kraus_branch: expected two Kraus operators"

let test_trajectory_noiseless_deterministic () =
  let rng = Rng.create 13 in
  let c = Apps.Qv.circuit rng 3 in
  let traj = Sim.Trajectory.run_one (Rng.create 1) Sim.Noisy.ideal c in
  let ideal = Sim.State.run_circuit c in
  check_loose "pure match" 1.0 (Sim.State.fidelity_pure traj ideal)

let test_trajectory_mean_matches_density () =
  (* trajectory average converges to the exact density result *)
  let rng = Rng.create 14 in
  let c = Apps.Qv.circuit rng 2 in
  let model = noise_with ~twoq:0.2 () in
  let exact = Sim.Density.probabilities (Sim.Noisy.run model c) in
  let mc = mean_probabilities ~seed:3 ~trajectories:3000 model c in
  Array.iteri
    (fun k p -> check_bool "close" true (Float.abs (p -. mc.(k)) < 0.04))
    exact

let test_trajectory_damping_specializations () =
  (* one-pass amplitude damping agrees with the generic Kraus branch in
     distribution: check expectation over many runs on |1> *)
  let gamma = 0.35 in
  let runs = 4000 in
  let count_decayed apply =
    let rng = Rng.create 15 in
    let decayed = ref 0 in
    for _ = 1 to runs do
      let s = Sim.State.of_basis 1 1 in
      apply rng s;
      if Sim.State.probability s 0 > 0.5 then incr decayed
    done;
    float_of_int !decayed /. float_of_int runs
  in
  let fast = count_decayed (fun rng s -> Sim.Trajectory.apply_amplitude_damping rng s 0 gamma) in
  let generic =
    count_decayed (fun rng s ->
        apply_kraus_branch rng s
          (Sim.Channel.kraus (Sim.Channel.amplitude_damping gamma))
          0)
  in
  check_bool "same decay rate" true (Float.abs (fast -. generic) < 0.03);
  check_bool "near gamma" true (Float.abs (fast -. gamma) < 0.03)

let test_trajectory_overlap_bounds () =
  let rng = Rng.create 16 in
  let c = Apps.Qv.circuit rng 3 in
  let ideal = Sim.State.run_circuit c in
  let model = noise_with ~twoq:0.05 () in
  let ov = Sim.Trajectory.mean_ideal_overlap ~trajectories:20 model c ~ideal in
  check_bool "bounded" true (ov >= 0.0 && ov <= 1.0)

(* ---------- properties ---------- *)

module G = Proptest.Gen

let prop_norm_preserved =
  Proptest.test ~count:20 "statevector norm preserved"
    (Proptest.arbitrary ~print:string_of_int (G.int_range 0 100000))
    (fun seed ->
      let rng = Rng.create seed in
      let c = Apps.Qv.circuit rng (2 + Rng.int rng 3) in
      Float.abs (Sim.State.norm2 (Sim.State.run_circuit c) -. 1.0) < 1e-8)

let prop_channel_trace =
  Proptest.test ~count:20 "channels preserve trace"
    (Proptest.arbitrary
       ~print:(fun (seed, p) -> Printf.sprintf "seed %d, p %.17g" seed p)
       (G.pair (G.int_range 0 10000) (G.float_range 0.0 0.9)))
    (fun (seed, p) ->
      let rng = Rng.create seed in
      let c = Apps.Qv.circuit rng 2 in
      let rho = Sim.Density.run_circuit c in
      apply_channel rho (Sim.Channel.depolarizing_2q p) [| 0; 1 |];
      Float.abs ((Sim.Density.trace rho).re -. 1.0) < 1e-8)

(* Every kernel of [State.apply_matrix] against the one gather/scatter
   loop it ran for every gate width before the kernels, kept here as
   the reference on plain (re, im) arrays. *)
let reference_apply ~n_qubits re im matrix qubits =
  let k = Array.length qubits in
  let dim_gate = 1 lsl k in
  let md = Mat.unsafe_data matrix in
  let bitpos = Array.init k (fun j -> qubits.(k - 1 - j)) in
  let mask_sorted = Array.copy bitpos in
  Array.sort compare mask_sorted;
  let gather_re = Array.make dim_gate 0.0 and gather_im = Array.make dim_gate 0.0 in
  let offsets = Array.make dim_gate 0 in
  for g = 0 to dim_gate - 1 do
    let off = ref 0 in
    for j = 0 to k - 1 do
      if (g lsr j) land 1 = 1 then off := !off lor (1 lsl bitpos.(j))
    done;
    offsets.(g) <- !off
  done;
  for rest = 0 to (1 lsl (n_qubits - k)) - 1 do
    let base = ref rest in
    Array.iter
      (fun q ->
        let low_mask = (1 lsl q) - 1 in
        base := (!base land low_mask) lor ((!base land lnot low_mask) lsl 1))
      mask_sorted;
    let base = !base in
    for g = 0 to dim_gate - 1 do
      let idx = base lor offsets.(g) in
      gather_re.(g) <- re.(idx);
      gather_im.(g) <- im.(idx)
    done;
    for r = 0 to dim_gate - 1 do
      let acc_re = ref 0.0 and acc_im = ref 0.0 in
      for c = 0 to dim_gate - 1 do
        let km = 2 * ((r * dim_gate) + c) in
        let mr = md.(km) and mi = md.(km + 1) in
        acc_re := !acc_re +. ((mr *. gather_re.(c)) -. (mi *. gather_im.(c)));
        acc_im := !acc_im +. ((mr *. gather_im.(c)) +. (mi *. gather_re.(c)))
      done;
      let idx = base lor offsets.(r) in
      re.(idx) <- !acc_re;
      im.(idx) <- !acc_im
    done
  done

(* A finite, unnormalized state with zeros of either sign mixed in: a
   quarter to three quarters of the amplitudes are zero, so whole
   blocks of zeros occur, where a sum that skips its leading [0.0 +.]
   can come out as -0.0. *)
let random_amplitudes rng n_qubits =
  let zero_frac = 0.25 *. float_of_int (1 + Rng.int rng 3) in
  let signed_zero () = if Rng.bool rng then 0.0 else -0.0 in
  Array.init (1 lsl n_qubits) (fun _ ->
      if Rng.float rng < zero_frac then (signed_zero (), signed_zero ())
      else (Rng.gaussian rng, if Rng.int rng 4 = 0 then signed_zero () else Rng.gaussian rng))

(* [after i] is amplitude i as a kernel left a state that held [amps];
   the reference on copies of [amps] must give every amplitude the same
   bits. *)
let matches_reference ~n_qubits amps (matrix, qubits) after =
  let re = Array.map fst amps and im = Array.map snd amps in
  reference_apply ~n_qubits re im matrix qubits;
  let bits = Int64.bits_of_float in
  List.for_all
    (fun i ->
      let z : Complex.t = after i in
      bits z.re = bits re.(i) && bits z.im = bits im.(i))
    (List.init (1 lsl n_qubits) Fun.id)

let kernel_of = function Sim.State.Real_x _ -> `Real | Nonzeros _ -> `Complex

(* A case reaches the kernels as [apply_matrix] does, per call, or
   prepared once, as the density simulator applies its channels; a
   prepared case names the kernel its shape calls for, `Real or
   `Complex, and must take it. *)
let kernel_matches rng ~n_qubits (via, matrix, qubits) =
  let amps = random_amplitudes rng n_qubits in
  let s = Sim.State.create n_qubits in
  Array.iteri (fun i (re, im) -> Sim.State.set_amplitude s i { Complex.re; im }) amps;
  let right_kernel =
    match via with
    | `Per_call ->
      Sim.State.apply_matrix s matrix qubits;
      true
    | (`Real | `Complex) as kernel ->
      let p = Sim.State.prepare matrix in
      Sim.State.apply_prepared s p qubits;
      kernel = kernel_of p
  in
  right_kernel && matches_reference ~n_qubits amps (matrix, qubits) (Sim.State.amplitude s)

let ordered_pairs n =
  let qs = List.init n Fun.id in
  List.concat_map (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) qs) qs

(* Real 4x4s zero off the diagonal and anti-diagonal, with zeros of
   both signs among their entries and as every imaginary part, and two
   that miss that shape by one entry: a nonzero imaginary part, or a
   nonzero entry off both diagonals. *)
let four_by_fours rng =
  let signed_zero () = if Rng.bool rng then 0.0 else -0.0 in
  let x_shaped =
    Mat.init 4 4 (fun r c ->
        let re =
          if (c = r || c = 3 - r) && Rng.int rng 4 > 0 then Rng.gaussian rng else signed_zero ()
        in
        { Complex.re; im = signed_zero () })
  in
  let with_entry r c z =
    let m = Mat.copy x_shaped in
    Mat.set m r c z;
    m
  in
  let r = Rng.int rng 4 in
  let imaginary =
    with_entry r (3 - r) { (Mat.get x_shaped r (3 - r)) with im = Rng.gaussian rng }
  in
  let off = List.filter (fun c -> c <> r && c <> 3 - r) [ 0; 1; 2; 3 ] in
  let off_shape =
    with_entry r (List.nth off (Rng.int rng 2)) { Complex.re = Rng.gaussian rng; im = 0.0 }
  in
  [ (`Real, x_shaped); (`Complex, imaginary); (`Complex, off_shape) ]

(* On n index-qubits: a random dense unitary and its conjugate (the
   density simulator's bra-half matrix) on every qubit and every ordered
   pair, a random 3-qubit unitary with zeroed entries on one ordered
   triple, and the prepared 4x4s of [four_by_fours] on every ordered
   pair. *)
let kernel_cases rng n =
  let with_conj qubits =
    let u = Qr.haar_unitary rng (1 lsl Array.length qubits) in
    [ (`Per_call, u, qubits); (`Per_call, Mat.conj u, qubits) ]
  in
  let unitaries =
    List.concat_map (fun q -> with_conj [| q |]) (List.init n Fun.id)
    @ List.concat_map (fun (a, b) -> with_conj [| a; b |]) (ordered_pairs n)
  in
  let triple =
    if n < 3 then []
    else begin
      let p = Rng.permutation rng n in
      let u = Qr.haar_unitary rng 8 in
      let m = Mat.init 8 8 (fun i j -> if Rng.int rng 3 = 0 then Complex.zero else Mat.get u i j) in
      [ (`Per_call, m, [| p.(0); p.(1); p.(2) |]) ]
    end
  in
  let prepared_4x4 =
    List.concat_map
      (fun (a, b) -> List.map (fun (kernel, m) -> (kernel, m, [| a; b |])) (four_by_fours rng))
      (ordered_pairs n)
  in
  unitaries @ triple @ prepared_4x4

(* Every channel, prepared, through [Density.apply_superoperator] on
   |psi><psi| for a random m-qubit psi with zeros of both signs, against
   the reference on the density operator's vectorized entries (ket
   qubit q is index-qubit q, bra qubit q is q + m): on each qubit the
   one-qubit channels, which must take the real kernel, and on each
   ordered pair the two-qubit one (16x16), which takes the complex
   path. *)
let density_channels_match rng m =
  let p () = Rng.float rng in
  let channels =
    List.concat_map
      (fun q ->
        List.map
          (fun ch -> (`Real, ch, [| q |]))
          [
            Sim.Channel.depolarizing_1q (p ());
            Sim.Channel.amplitude_damping (p ());
            Sim.Channel.phase_damping (p ());
          ])
      (List.init m Fun.id)
    @ List.map
        (fun (a, b) -> (`Complex, Sim.Channel.depolarizing_2q (p ()), [| a; b |]))
        (ordered_pairs m)
  in
  List.for_all
    (fun (kernel, ch, qubits) ->
      let psi = Sim.State.create m in
      Array.iteri
        (fun i (re, im) -> Sim.State.set_amplitude psi i { Complex.re; im })
        (random_amplitudes rng m);
      let rho = Sim.Density.of_statevector psi in
      let entry i = Sim.Density.get rho (i land ((1 lsl m) - 1)) (i lsr m) in
      let amps =
        Array.init (1 lsl (2 * m)) (fun i ->
            let z = entry i in
            (z.Complex.re, z.Complex.im))
      in
      let s = Sim.Channel.superoperator ch in
      let prepared = Sim.State.prepare s in
      Sim.Density.apply_superoperator rho prepared qubits;
      kernel = kernel_of prepared
      && matches_reference ~n_qubits:(2 * m) amps
           (s, Array.append qubits (Array.map (fun q -> q + m) qubits))
           entry)
    channels

let prop_kernels_match_reference =
  Proptest.test ~count:8 "kernels match the reference loop bit for bit"
    (Proptest.arbitrary ~print:string_of_int (G.int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun n -> List.for_all (kernel_matches rng ~n_qubits:n) (kernel_cases rng n))
        [ 1; 2; 3; 4; 5; 6 ]
      && List.for_all (density_channels_match rng) [ 1; 2; 3 ])

(* three simulators, one answer *)

let linf a b =
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

let sim_properties =
  [
    Proptest.test "state and density agree on ideal circuits" ~count:10
      (Proptest.circuit ~n_qubits:3 ())
      (fun c ->
        linf
          (Sim.State.probabilities (Sim.State.run_circuit c))
          (Sim.Density.probabilities (Sim.Density.run_circuit c))
        < 1e-9);
    Proptest.test "of_statevector preserves the state" ~count:10
      (Proptest.circuit ~n_qubits:3 ())
      (fun c ->
        let s = Sim.State.run_circuit c in
        let rho = Sim.Density.of_statevector s in
        Float.abs (1.0 -. Sim.Density.purity rho) <= 1e-9
        && linf (Sim.State.probabilities s) (Sim.Density.probabilities rho) < 1e-9);
    Proptest.test "zero-noise trajectory is the pure state" ~count:6
      (Proptest.circuit ~n_qubits:3 ())
      (fun c ->
        let traj = Sim.Trajectory.run_one (Rng.create 1) Sim.Noisy.ideal c in
        Float.abs (1.0 -. Sim.State.fidelity_pure traj (Sim.State.run_circuit c)) <= 1e-9);
    Proptest.test "density and trajectory agree on noisy circuits" ~count:2
      (Proptest.circuit ~n_qubits:2 ~max_length:6 ())
      (fun c ->
        let model = noise_with ~twoq:0.15 ~oneq:0.01 () in
        let exact = Sim.Density.probabilities (Sim.Noisy.run model c) in
        let mc =
          mean_probabilities ~seed:3 ~trajectories:2000 model c
        in
        linf exact mc < 0.05);
  ]

let () =
  Alcotest.run "sim"
    [
      ( "state",
        [
          Alcotest.test_case "init" `Quick test_state_init;
          Alcotest.test_case "basis" `Quick test_state_basis;
          Alcotest.test_case "x flips" `Quick test_state_x_flip;
          Alcotest.test_case "bell" `Quick test_state_bell;
          Alcotest.test_case "qubit ordering" `Quick test_state_qubit_ordering;
          Alcotest.test_case "kron embedding" `Quick test_state_matches_kron_embedding;
          Alcotest.test_case "norm preserved" `Quick test_state_norm_preserved;
          Alcotest.test_case "inner" `Quick test_state_inner;
          Alcotest.test_case "qubit out of range refused" `Quick test_state_qubit_out_of_range;
          Alcotest.test_case "repeated qubit refused" `Quick test_state_qubit_repeated;
          Alcotest.test_case "matrix size refused" `Quick test_state_matrix_size;
          Alcotest.test_case "prepared matrix refused" `Quick test_state_prepared_refused;
        ] );
      ( "channel",
        [
          Alcotest.test_case "tp validation" `Quick test_channel_trace_preserving_check;
          Alcotest.test_case "constructors" `Quick test_channel_constructors;
          Alcotest.test_case "damping params" `Quick test_damping_params;
          Alcotest.test_case "readout" `Quick test_readout_error;
          Alcotest.test_case "readout total" `Quick test_readout_preserves_total;
          Alcotest.test_case "superoperator summed in place" `Quick
            test_superoperator_in_place;
        ] );
      ( "density",
        [
          Alcotest.test_case "pure init" `Quick test_density_pure_init;
          Alcotest.test_case "matches statevector" `Quick test_density_matches_statevector;
          Alcotest.test_case "unitary purity" `Quick test_density_purity_preserved_by_unitaries;
          Alcotest.test_case "depolarizing mixes" `Quick test_density_depolarizing_mixes;
          Alcotest.test_case "channels keep trace" `Quick test_density_channel_preserves_trace;
          Alcotest.test_case "amp damping" `Quick test_density_amplitude_damping_fixed_point;
          Alcotest.test_case "of_statevector" `Quick test_density_of_statevector;
        ] );
      ( "noisy",
        [
          Alcotest.test_case "ideal" `Quick test_noisy_ideal_matches_pure;
          Alcotest.test_case "reduces purity" `Quick test_noisy_reduces_purity;
          Alcotest.test_case "trace one" `Quick test_noisy_trace_one;
          Alcotest.test_case "monotone in error" `Quick test_noisy_more_error_less_fidelity;
          prop_run_matches_reference;
          Alcotest.test_case "channels prepared once per run" `Quick
            test_channels_prepared_count;
          Alcotest.test_case "traced runs span and match" `Quick
            test_traced_runs_span_and_match;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "noiseless" `Quick test_trajectory_noiseless_deterministic;
          Alcotest.test_case "matches density" `Slow test_trajectory_mean_matches_density;
          Alcotest.test_case "damping specializations" `Quick test_trajectory_damping_specializations;
          Alcotest.test_case "overlap bounds" `Quick test_trajectory_overlap_bounds;
        ] );
      ("properties", [ prop_norm_preserved; prop_channel_trace; prop_kernels_match_reference ]);
      ("sim", sim_properties);
    ]
