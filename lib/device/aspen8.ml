(* Rigetti Aspen-8 device model (first 8-qubit ring, Fig 3).

   Exact per-edge calibration values from qcs.rigetti.com are not public,
   so the CZ / XY(pi) tables below are synthesized to match what Fig 3
   shows: fidelities spread over ~91-98% and the best gate type varies
   from edge to edge.  Qubit pair (2,3) favours CZ at 94% and pair (3,4)
   favours the XY gate — the exact scenario of the paper's Fig 5
   walkthrough.  Arbitrary XY(theta) gate types draw uniformly from
   95-99% fidelity, as the paper models (Sec VI, based on [3]), and so
   does each edge's continuous XY-family error. *)

open Gates

let n_ring = 8

(* (cz_fidelity, xy_pi_fidelity) per ring edge (i, i+1 mod 8). *)
let ring_fidelities =
  [|
    (0.971, 0.949);
    (0.962, 0.978);
    (0.940, 0.905);
    (0.910, 0.950);
    (0.975, 0.952);
    (0.958, 0.981);
    (0.930, 0.968);
    (0.968, 0.942);
  |]

let t1_seconds = 30e-6
let t2_seconds = 18e-6
let duration_1q = 60e-9
let duration_2q = 180e-9
let oneq_error_rate = 2e-3
let readout_error_rate = 4e-2

let xy_min_fidelity = 0.95
let xy_max_fidelity = 0.99

let is_cz_like ty = String.equal (Gate_type.name ty) "CZ"
let is_xy_pi ty = String.equal (Gate_type.name ty) "XY(pi)"

let default_types =
  Gate_type.[ s2; s3; s4; s5; s6; swap_type; xy_pi ]

(* Per-type gate durations (seconds).  Rigetti's parametric gates run an
   order of magnitude slower than Sycamore's: CZ holds the full 180 ns
   flux pulse, XY(theta) entanglers scale with the exchange angle, and a
   SWAP costs three CZ pulses.  Types not listed fall back to the 180 ns
   device scalar. *)
let type_durations =
  Gate_type.
    [
      (s2, 130e-9);  (* sqrt(iSWAP) = XY(pi/2) *)
      (s3, 180e-9);  (* CZ *)
      (s4, 160e-9);  (* iSWAP = XY(pi) at full exchange *)
      (s5, 140e-9);  (* fSim(pi/3, 0) *)
      (s6, 150e-9);  (* fSim(3pi/8, 0) *)
      (swap_type, 540e-9);  (* 3x CZ *)
      (xy_pi, 160e-9);
    ]

let ring_device ?(seed = 11) () =
  let topology = Topology.ring n_ring in
  let rng = Linalg.Rng.create seed in
  let xy_error () =
    Linalg.Rng.uniform rng (1.0 -. xy_max_fidelity) (1.0 -. xy_min_fidelity)
  in
  let edges = Topology.edges topology in
  (* Per-edge base for the continuous XY family: uniform in the paper's
     95-99% fidelity band.  Each edge takes a second draw, unused, so
     that the seeded stream of every later draw keeps its place. *)
  let family_base =
    List.map
      (fun e ->
        let base = xy_error () in
        ignore (Linalg.Rng.uniform rng 0.0 (0.5 *. base));
        (e, base))
      edges
  in
  (* index of an edge in the ring table: (k, k+1) -> k, (0, n-1) -> n-1 *)
  let ring_index (a, b) =
    if a = 0 && b = n_ring - 1 then n_ring - 1 else min a b
  in
  let twoq_error =
    List.concat_map
      (fun ty ->
        List.map
          (fun e ->
            let cz_fid, xy_fid = ring_fidelities.(ring_index e) in
            let err =
              if is_cz_like ty then 1.0 -. cz_fid
              else if is_xy_pi ty then 1.0 -. xy_fid
              else xy_error ()
            in
            (e, Gate_type.name ty, err))
          edges)
      default_types
  in
  let twoq_duration =
    List.concat_map
      (fun (ty, dur) -> List.map (fun e -> (e, Gate_type.name ty, dur)) edges)
      type_durations
  in
  Calibration.make ~topology
    ~oneq_error:(Array.make n_ring oneq_error_rate)
    ~readout_error:(Array.make n_ring readout_error_rate)
    ~t1:(Array.make n_ring t1_seconds) ~t2:(Array.make n_ring t2_seconds) ~duration_1q
    ~duration_2q ~twoq_error ~twoq_duration ~family_base ()

let fidelity_table () =
  List.init n_ring (fun k ->
      let a = k and b = (k + 1) mod n_ring in
      let cz, xy = ring_fidelities.(k) in
      ((a, b), cz, xy))
