(* Quantum Fourier Transform circuits (Nielsen & Chuang Ch. 5).

   n Hadamards and n(n-1)/2 controlled-phase CZ(pi/2^t) gates, exactly
   the census Sec VI quotes.  Final qubit-reversal SWAPs are omitted (the
   classical post-processing reads bits reversed), matching common
   practice and the paper's instruction counts. *)

let circuit n =
  assert (n >= 1);
  let c = ref (Qcir.Circuit.empty n) in
  for j = n - 1 downto 0 do
    c := Qcir.Circuit.add_gate !c Gates.Gate.h [| j |];
    for k = j - 1 downto 0 do
      let t = j - k in
      (* cphase follows the fSim convention diag(1,1,1,e^{-i phi}); the
         QFT needs the +i phase, hence the negated angle *)
      let phi = Float.pi /. Float.of_int (1 lsl t) in
      c := Qcir.Circuit.add_gate !c (Gates.Gate.cphase (-.phi)) [| k; j |]
    done
  done;
  !c

(* The success studies (Figs 9c, 10c) run the QFT on odd basis inputs:
   X gates prepare (2k+1) mod 2^n first. *)
let with_input n k =
  let input = ((2 * k) + 1) land ((1 lsl n) - 1) in
  let c = ref (Qcir.Circuit.empty n) in
  for q = 0 to n - 1 do
    if (input lsr q) land 1 = 1 then c := Qcir.Circuit.add_gate !c Gates.Gate.x [| q |]
  done;
  Qcir.Circuit.append !c (circuit n)

(* Ideal QFT output amplitude: QFT|x> = sum_y e^{2 pi i x y / 2^n} |y> / sqrt(2^n),
   with this circuit's bit ordering producing the bit-reversed index. *)
let expected_state ~n_qubits ~input =
  let dim = 1 lsl n_qubits in
  let reverse_bits y =
    let r = ref 0 in
    for b = 0 to n_qubits - 1 do
      if (y lsr b) land 1 = 1 then r := !r lor (1 lsl (n_qubits - 1 - b))
    done;
    !r
  in
  Array.init dim (fun y ->
      let yr = reverse_bits y in
      let phase =
        2.0 *. Float.pi *. Float.of_int (input * yr) /. Float.of_int dim
      in
      Linalg.Cplx.scale (1.0 /. Float.sqrt (Float.of_int dim)) (Linalg.Cplx.cis phase))

let controlled_phase_unitaries n =
  let out = ref [] in
  for t = 1 to n - 1 do
    out := Gates.Twoq.cphase (Float.pi /. Float.of_int (1 lsl t)) :: !out
  done;
  List.rev !out
