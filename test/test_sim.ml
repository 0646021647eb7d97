(* Tests for the simulators: state vector, channels, density operator,
   noisy execution, trajectories and sampling, plus the properties
   running the three simulators against each other. *)

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

(* ---------- Density ---------- *)

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
  Sim.Density.apply_channel rho (Sim.Channel.depolarizing_1q 0.75) [| 0 |];
  (* p = 3/4 uniform-Pauli depolarizing fully mixes a single qubit *)
  check_loose "p0" 0.5 (Sim.Density.probability rho 0);
  check_loose "purity" 0.5 (Sim.Density.purity rho);
  check_loose "trace" 1.0 (Sim.Density.trace rho).re

let test_density_channel_preserves_trace () =
  let rng = Rng.create 8 in
  let c = Apps.Qv.circuit rng 2 in
  let rho = Sim.Density.run_circuit c in
  Sim.Density.apply_channel rho (Sim.Channel.depolarizing_2q 0.1) [| 0; 1 |];
  Sim.Density.apply_channel rho (Sim.Channel.amplitude_damping 0.2) [| 1 |];
  Sim.Density.apply_channel rho (Sim.Channel.phase_damping 0.15) [| 0 |];
  check_loose "trace 1" 1.0 (Sim.Density.trace rho).re

let test_density_amplitude_damping_fixed_point () =
  (* |1> decays toward |0> *)
  let rho = Sim.Density.create 1 in
  Sim.Density.apply_unitary rho Gates.Oneq.x [| 0 |];
  Sim.Density.apply_channel rho (Sim.Channel.amplitude_damping 0.3) [| 0 |];
  check_loose "p1" 0.7 (Sim.Density.probability rho 1);
  Sim.Density.apply_channel rho (Sim.Channel.amplitude_damping 1.0) [| 0 |];
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

let test_scheduled_matches_ideal () =
  (* without decoherence the scheduled and plain runners agree *)
  let rng = Rng.create 19 in
  let c = Apps.Qv.circuit rng 3 in
  let model = noise_with ~twoq:0.05 () in
  let plain = Sim.Density.probabilities (Sim.Noisy.run model c) in
  let sched = Sim.Density.probabilities (Sim.Noisy.run_scheduled model c) in
  Array.iteri (fun k p -> check_loose "agree" p sched.(k)) plain

let test_scheduled_idle_decoherence () =
  (* a circuit where qubit 1 idles while qubit 0 works: only the
     scheduled runner decoheres the idle qubit *)
  let c = ref (Qcir.Circuit.empty 2) in
  (* excite qubit 1, then keep qubit 0 busy *)
  !c |> ignore;
  c := Qcir.Circuit.add_gate !c Gates.Gate.x [| 1 |];
  for _ = 1 to 30 do
    c := Qcir.Circuit.add_gate !c Gates.Gate.x [| 0 |]
  done;
  let model =
    {
      (noise_with ()) with
      Sim.Noisy.t1 = (fun _ -> 10e-6);
      t2 = (fun _ -> 8e-6);
      duration_1q = 100e-9;
    }
  in
  let plain = Sim.Noisy.run model !c in
  let sched = Sim.Noisy.run_scheduled model !c in
  (* plain: qubit 1 only decoheres during its own X gate; scheduled:
     it also decays during the 30 idle moments *)
  let p1_plain = ref 0.0 and p1_sched = ref 0.0 in
  for idx = 0 to 3 do
    if idx land 2 <> 0 then begin
      p1_plain := !p1_plain +. Sim.Density.probability plain idx;
      p1_sched := !p1_sched +. Sim.Density.probability sched idx
    end
  done;
  check_bool "idle decay visible" true (!p1_sched < !p1_plain -. 0.01)

let test_scheduled_noiseless_exact () =
  let rng = Rng.create 20 in
  let c = Apps.Qaoa.circuit rng 3 in
  (* ideal has no readout error: the scheduled runner's probabilities
     are the output probabilities *)
  let probs = Sim.Density.probabilities (Sim.Noisy.run_scheduled Sim.Noisy.ideal c) in
  let expect = Sim.State.probabilities (Sim.State.run_circuit c) in
  Array.iteri (fun k p -> check_loose "prob" p probs.(k)) expect

(* ---------- scheduled-runner differential reference ---------- *)

(* The pre-refactor schedule-aware runner — private ASAP bucketing with
   an interleaved Float.max duration fold — retained verbatim: the
   rewrite over the shared Schedule.t must reproduce it bit for bit. *)
let reference_indexed_moments circuit =
  let n = Qcir.Circuit.n_qubits circuit in
  let avail_steps = Array.make n 0 in
  let buckets : (int * Qcir.Instr.t) list array ref = ref (Array.make 8 []) in
  let ensure k =
    if k >= Array.length !buckets then begin
      let bigger = Array.make (2 * (k + 1)) [] in
      Array.blit !buckets 0 bigger 0 (Array.length !buckets);
      buckets := bigger
    end
  in
  let last = ref (-1) in
  let index = ref 0 in
  Qcir.Circuit.iter
    (fun instr ->
      let qs = Qcir.Instr.qubits instr in
      let start = Array.fold_left (fun m q -> max m avail_steps.(q)) 0 qs in
      Array.iter (fun q -> avail_steps.(q) <- start + 1) qs;
      ensure start;
      !buckets.(start) <- (!index, instr) :: !buckets.(start);
      if start > !last then last := start;
      incr index)
    circuit;
  List.init (!last + 1) (fun k -> List.rev !buckets.(k))

(* T1/T2 decay of qubit [q] over [duration], each channel built afresh. *)
let reference_decoherence (model : Sim.Noisy.noise_model) rho q duration =
  if Float.is_finite (model.Sim.Noisy.t1 q) && duration > 0.0 then begin
    let gamma, lambda =
      Sim.Channel.damping_params ~t1:(model.Sim.Noisy.t1 q) ~t2:(model.Sim.Noisy.t2 q)
        ~duration
    in
    if gamma > 0.0 then
      Sim.Density.apply_channel rho (Sim.Channel.amplitude_damping gamma) [| q |];
    if lambda > 0.0 then
      Sim.Density.apply_channel rho (Sim.Channel.phase_damping lambda) [| q |]
  end

let reference_run_scheduled (model : Sim.Noisy.noise_model) circuit =
  let n = Qcir.Circuit.n_qubits circuit in
  let rho = Sim.Density.create n in
  List.iter
    (fun moment ->
      let duration = ref 0.0 in
      List.iter
        (fun (idx, instr) ->
          Sim.Density.apply_instr rho instr;
          let qs = Qcir.Instr.qubits instr in
          match Array.length qs with
          | 1 ->
            let p = model.Sim.Noisy.oneq_error qs.(0) in
            if p > 0.0 then
              Sim.Density.apply_channel rho (Sim.Channel.depolarizing_1q p) qs;
            duration := Float.max !duration model.Sim.Noisy.duration_1q
          | 2 ->
            let p = model.Sim.Noisy.twoq_error idx instr in
            if p > 0.0 then
              Sim.Density.apply_channel rho (Sim.Channel.depolarizing_2q p) qs;
            duration := Float.max !duration model.Sim.Noisy.duration_2q
          | _ -> Alcotest.fail "reference: >2q gate")
        moment;
      for q = 0 to n - 1 do
        reference_decoherence model rho q !duration
      done)
    (reference_indexed_moments circuit);
  rho

let full_noise ?(twoq = 0.02) ?(oneq = 0.001) () =
  {
    (noise_with ~twoq ~oneq ~readout:0.01 ()) with
    Sim.Noisy.t1 = (fun q -> 15e-6 +. (1e-6 *. float_of_int q));
    t2 = (fun q -> 11e-6 +. (0.5e-6 *. float_of_int q));
    duration_1q = 25e-9;
    duration_2q = 32e-9;
  }

let test_scheduled_bit_identical_random () =
  (* all noise knobs on, several random circuits: exact float equality *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let c = Apps.Qv.circuit rng 3 in
      let model = full_noise () in
      let a = Sim.Density.probabilities (reference_run_scheduled model c) in
      let b = Sim.Density.probabilities (Sim.Noisy.run_scheduled model c) in
      check_bool "bit-identical" true (a = b))
    [ 41; 42; 43; 44 ]

let test_scheduled_bit_identical_fig9 () =
  (* the fig9 quick-scale configuration: Aspen-8 pipeline output run
     under the pipeline noise model *)
  let device = Device.aspen8 () in
  let options =
    {
      Compiler.Pipeline.default_options with
      nuop = { Decompose.Nuop.default_options with starts = 3 };
    }
  in
  let rng = Rng.create 2021 in
  List.iter
    (fun circuit ->
      let compiled = Compiler.Pipeline.compile ~options ~device ~isa:Isa.Set.r2 circuit in
      let nm = Compiler.Pipeline.noise_model ~device compiled in
      let c = compiled.Compiler.Pipeline.circuit in
      let a = Sim.Density.probabilities (reference_run_scheduled nm c) in
      let b = Sim.Density.probabilities (Sim.Noisy.run_scheduled nm c) in
      check_bool "bit-identical" true (a = b))
    [ Apps.Qaoa.circuit rng 3; Apps.Qv.circuit rng 3 ]

let test_scheduled_explicit_schedule_matches_default () =
  (* passing the model's own schedule explicitly changes nothing *)
  let rng = Rng.create 45 in
  let c = Apps.Qaoa.circuit rng 3 in
  let model = full_noise () in
  let a = Sim.Density.probabilities (Sim.Noisy.run_scheduled model c) in
  let b =
    Sim.Density.probabilities
      (Sim.Noisy.run_scheduled ~schedule:(Sim.Noisy.model_schedule model c) model c)
  in
  check_bool "identical" true (a = b)

(* ---------- acting-qubits runner differential reference ---------- *)

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
        if p > 0.0 then Sim.Density.apply_channel rho (Sim.Channel.depolarizing_1q p) qs;
        reference_decoherence model rho qs.(0) model.Sim.Noisy.duration_1q
      | 2 ->
        let p = model.Sim.Noisy.twoq_error !index instr in
        if p > 0.0 then Sim.Density.apply_channel rho (Sim.Channel.depolarizing_2q p) qs;
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

let test_traced_runs_span_and_match () =
  (* a traced run records the simulators' spans and returns the
     untraced run's bits *)
  let rng = Rng.create 46 in
  let c = Apps.Qaoa.circuit rng 3 in
  let model = full_noise () in
  let ideal = Sim.State.run_circuit c in
  let runs () =
    ( Sim.Noisy.run model c,
      Sim.Noisy.run_scheduled model c,
      Sim.Trajectory.mean_ideal_overlap ~trajectories:4 model c ~ideal,
      Sim.Trajectory.mean_probabilities ~trajectories:4 model c )
  in
  let d0, s0, o0, p0 = runs () in
  let events = ref [] in
  Obs.Sink.install
    { Obs.Sink.emit = (fun ev -> events := ev :: !events); flush = (fun () -> ()) };
  let d1, s1, o1, p1 = Fun.protect ~finally:Obs.Sink.uninstall runs in
  let spans name =
    List.length
      (List.filter
         (function Obs.Span_end { name = n; _ } -> String.equal n name | _ -> false)
         !events)
  in
  Alcotest.(check int) "density spans" 2 (spans "sim.density.run");
  Alcotest.(check int) "trajectory spans" 2 (spans "sim.trajectory.run");
  check_bool "run bits" true (same_bits d0 d1);
  check_bool "run_scheduled bits" true (same_bits s0 s1);
  check_bool "overlap bits" true (Int64.bits_of_float o0 = Int64.bits_of_float o1);
  check_bool "probability bits" true
    (Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) p0 p1)

(* ---------- Trajectory ---------- *)

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
  let mc = Sim.Trajectory.mean_probabilities ~seed:3 ~trajectories:3000 model c in
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
        Sim.Trajectory.apply_kraus_branch rng s
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

(* ---------- Sample ---------- *)

let test_sample_counts_sum () =
  let rng = Rng.create 17 in
  let probs = [| 0.5; 0.25; 0.125; 0.125 |] in
  let tally = Sim.Sample.counts ~rng ~shots:1000 probs in
  let total = Hashtbl.fold (fun _ c acc -> acc + c) tally 0 in
  Alcotest.(check int) "1000 shots" 1000 total

let test_sample_empirical_converges () =
  let rng = Rng.create 18 in
  let probs = [| 0.7; 0.3 |] in
  let emp = Sim.Sample.empirical_probabilities ~rng ~shots:20000 probs in
  check_bool "close" true (Float.abs (emp.(0) -. 0.7) < 0.02)

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
      Sim.Density.apply_channel rho (Sim.Channel.depolarizing_2q p) [| 0; 1 |];
      Float.abs ((Sim.Density.trace rho).re -. 1.0) < 1e-8)

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
          Sim.Trajectory.mean_probabilities ~seed:3 ~trajectories:2000 model c
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
        ] );
      ( "channel",
        [
          Alcotest.test_case "tp validation" `Quick test_channel_trace_preserving_check;
          Alcotest.test_case "constructors" `Quick test_channel_constructors;
          Alcotest.test_case "damping params" `Quick test_damping_params;
          Alcotest.test_case "readout" `Quick test_readout_error;
          Alcotest.test_case "readout total" `Quick test_readout_preserves_total;
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
          Alcotest.test_case "scheduled = plain sans decoherence" `Quick test_scheduled_matches_ideal;
          Alcotest.test_case "scheduled idle decoherence" `Quick test_scheduled_idle_decoherence;
          Alcotest.test_case "scheduled noiseless" `Quick test_scheduled_noiseless_exact;
          Alcotest.test_case "scheduled bit-identical (random)" `Quick
            test_scheduled_bit_identical_random;
          Alcotest.test_case "scheduled bit-identical (fig9 config)" `Quick
            test_scheduled_bit_identical_fig9;
          Alcotest.test_case "explicit schedule = default" `Quick
            test_scheduled_explicit_schedule_matches_default;
          prop_run_matches_reference;
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
      ( "sample",
        [
          Alcotest.test_case "counts sum" `Quick test_sample_counts_sum;
          Alcotest.test_case "empirical converges" `Quick test_sample_empirical_converges;
        ] );
      ("properties", [ prop_norm_preserved; prop_channel_trace ]);
      ("sim", sim_properties);
    ]
