(* Analytic estimated success probability (ESP) of a timed executable.

   The exponential-cost density simulation multiplies noise channels
   into the full state; ESP replaces it with a product of scalars, so a
   success estimate exists for circuits far beyond density-sim reach:

     ESP = prod_i (1 - e_i)                 per-instruction gate fidelity
         * prod_q D(idle_q; T1_q, T2_q)     idle-time decoherence

   Readout is left out, as the density simulator's state fidelities
   leave it out.

   The decoherence factor mirrors the damping channels the density
   simulator applies (Channel.damping_params): a qubit idling for time
   tau keeps its excitation with probability exp(-tau/T1) and its phase
   with exp(-tau/Tphi), 1/Tphi = 1/T2 - 1/(2 T1).  Averaged over basis
   populations, each mechanism costs half its decay probability, the
   small-error regime where the analytic product tracks the simulated
   fidelity (the differential suite pins agreement within 5%). *)

type t = {
  gate_fidelity : float;  (** prod over instructions of (1 - error) *)
  decoherence_factor : float;  (** prod over qubits of the idle-decay factor *)
  esp : float;  (** the headline product *)
}

let qubit_decoherence ~t1 ~t2 idle =
  if idle <= 0.0 || not (Float.is_finite t1) then 1.0
  else begin
    let p_amp = 1.0 -. Float.exp (-.idle /. t1) in
    let inv_tphi = Float.max 0.0 ((1.0 /. t2) -. (1.0 /. (2.0 *. t1))) in
    let p_phase = 1.0 -. Float.exp (-.idle *. inv_tphi) in
    (1.0 -. (0.5 *. p_amp)) *. (1.0 -. (0.5 *. p_phase))
  end

let estimate ~twoq_errors ~oneq_error ~t1 ~t2 schedule =
  let gate_fidelity = ref 1.0 in
  Schedule.iter_moments
    (fun m ->
      List.iter
        (fun (idx, instr) ->
          let qs = Qcir.Instr.qubits instr in
          match Array.length qs with
          | 1 -> gate_fidelity := !gate_fidelity *. (1.0 -. oneq_error qs.(0))
          | 2 ->
            assert (idx >= 0 && idx < Array.length twoq_errors);
            gate_fidelity := !gate_fidelity *. (1.0 -. twoq_errors.(idx))
          | _ -> invalid_arg "Esp.estimate: gates beyond two qubits are not supported")
        m.Schedule.instrs)
    schedule;
  let decoherence_factor = ref 1.0 in
  for q = 0 to Schedule.n_qubits schedule - 1 do
    decoherence_factor :=
      !decoherence_factor
      *. qubit_decoherence ~t1:(t1 q) ~t2:(t2 q) (Schedule.idle_time schedule q)
  done;
  {
    gate_fidelity = !gate_fidelity;
    decoherence_factor = !decoherence_factor;
    esp = !gate_fidelity *. !decoherence_factor;
  }
