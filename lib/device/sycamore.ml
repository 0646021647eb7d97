(* Google Sycamore device model.

   54 qubits on a 6x9 grid (the real device's diagonal-grid coupler count,
   88, is close to this grid's 93).  As in Sec VI of the paper: SYC-gate
   error rates follow N(mu = 0.62%, sigma = 0.24%); every other two-qubit
   gate type draws iid from the same distribution.  [vary = false]
   reproduces Fig 10e's "no noise variation across gate types" setting by
   giving all types on an edge the same error rate. *)

open Gates

let rows = 6
let cols = 9

let err_mu = 0.0062
let err_sigma = 0.0024
let err_min = 1e-5
let err_max = 0.03

let t1_seconds = 15e-6
let t2_seconds = 10e-6
let duration_1q = 25e-9
let duration_2q = 32e-9
let oneq_error_rate = 1.0e-3
let readout_error_rate = 3e-2

let default_types =
  Gate_type.[ s1; s2; s3; s4; s5; s6; s7; swap_type ]

(* Per-type gate durations (seconds), uniform across edges.  The SYC
   gate is the device's fastest native two-qubit interaction (~12 ns on
   hardware); partial-iSWAP types scale with their swap angle, CZ-like
   types with the hold time of the conditional phase, and a full SWAP
   costs three native interactions.  Types not listed fall back to the
   32 ns device scalar. *)
let type_durations =
  Gate_type.
    [
      (s1, 12e-9);  (* SYC = fSim(pi/2, pi/6) *)
      (s2, 23e-9);  (* sqrt(iSWAP) *)
      (s3, 26e-9);  (* CZ *)
      (s4, 32e-9);  (* iSWAP *)
      (s5, 27e-9);  (* fSim(pi/3, 0) *)
      (s6, 29e-9);  (* fSim(3pi/8, 0) *)
      (s7, 21e-9);  (* fSim(pi/6, pi) *)
      (swap_type, 78e-9);  (* 3x CZ *)
    ]

let sample_error ~mu ~sigma rng =
  let e = Linalg.Rng.gaussian_mu_sigma rng ~mu ~sigma in
  Float.max err_min (Float.min err_max e)

let build ?(vary = true) ?(types = default_types) ?(mu = err_mu) ?(sigma = err_sigma)
    ?(oneq = oneq_error_rate) topology =
  let rng = Linalg.Rng.create 23 in
  let edges = Topology.edges topology in
  (* one base error per edge: every type's error when [vary = false], and
     the continuous-family error either way *)
  let edge_base = List.map (fun e -> (e, sample_error ~mu ~sigma rng)) edges in
  let family_rng = Linalg.Rng.child rng in
  let family_base =
    if vary then List.map (fun e -> (e, sample_error ~mu ~sigma family_rng)) edges
    else edge_base
  in
  let twoq_error =
    List.concat_map
      (fun ty ->
        List.map
          (fun (e, base) ->
            (e, Gate_type.name ty, if vary then sample_error ~mu ~sigma rng else base))
          edge_base)
      types
  in
  let twoq_duration =
    List.concat_map
      (fun (ty, dur) -> List.map (fun e -> (e, Gate_type.name ty, dur)) edges)
      type_durations
  in
  let n = Topology.n_qubits topology in
  Calibration.make ~topology ~oneq_error:(Array.make n oneq)
    ~readout_error:(Array.make n readout_error_rate)
    ~t1:(Array.make n t1_seconds) ~t2:(Array.make n t2_seconds) ~duration_1q ~duration_2q
    ~twoq_error ~twoq_duration ~family_base ()

let device () = build (Topology.grid rows cols)

(* A small sub-device for the 3-6 qubit benchmarks: first [k] qubits of a
   grid row (a line), with the same error model. *)
let line_device ?vary ?types ?mu ?sigma ?oneq k =
  if k < 2 || k > 30 then
    invalid_arg
      (Printf.sprintf "qubits must be between 2 and 30 for a Sycamore line (got %d)" k);
  build ?vary ?types ?mu ?sigma ?oneq (Topology.line k)
