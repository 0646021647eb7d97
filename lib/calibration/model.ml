(* fSim calibration cost model (Sec IX, after Foxen et al. [4]).

   Calibrating one fSim(theta, phi) gate type on one qubit pair takes:
   1. CPHASE calibration at angles {phi, pi}            (2 angle tune-ups)
   2. iSWAP-like calibration at angles {0, pi/2}        (2 angle tune-ups)
   3. theta tune-up with CPHASE angle pi                (1 angle tune-up)
   4. unitary tomography of the composed pulse
   5. fidelity characterization: XEB, 1000 rounds

   This is the paper's conservative model: each type calibrated
   individually on isolated pairs; pulse-overlap and crosstalk
   calibration would only add to it.  The default constants reproduce
   the paper's headline scale: ~10^7 circuits to calibrate 10 gate types
   on a 54-qubit device. *)

type t = {
  circuits_per_angle : int;  (** executions per angle tune-up *)
  angle_tuneups_per_type : int;  (** steps 1-3: 5 angle tune-ups *)
  tomography_circuits : int;
  xeb_rounds : int;
  circuits_per_xeb_round : int;
  hours_per_type_per_pair : float;
      (** Sec IX: conservatively ~2 h per two-qubit gate type *)
}

let default =
  {
    circuits_per_angle = 100;
    angle_tuneups_per_type = 5;
    tomography_circuits = 250;
    xeb_rounds = 1000;
    circuits_per_xeb_round = 10;
    hours_per_type_per_pair = 2.0;
  }

let circuits_per_type_pair m =
  (m.circuits_per_angle * m.angle_tuneups_per_type)
  + m.tomography_circuits
  + (m.xeb_rounds * m.circuits_per_xeb_round)

let total_circuits m ~n_pairs ~n_types = n_pairs * n_types * circuits_per_type_pair m

(* Serial calibration walks every (pair, type); parallel calibration runs
   non-interacting pairs concurrently, needing one batch per "color" of
   the coupler graph (4 for a grid). *)
let time_hours_serial m ~n_pairs ~n_types =
  m.hours_per_type_per_pair *. float_of_int (n_pairs * n_types)

let time_hours_parallel m ~n_types =
  m.hours_per_type_per_pair *. float_of_int (4 * n_types)

(* Coloring-aware parallel calibration: batches = proper edge-coloring
   classes of the coupler graph (edges in one class share no qubit). *)
let time_hours_parallel_on m ~topology ~n_types =
  let batches = Device.Topology.coloring_classes topology in
  m.hours_per_type_per_pair *. float_of_int (batches * n_types)

(* A continuous gate family discretized at the paper's characterization
   granularity: Foxen et al. calibrated 525 distinct fSim gate types. *)
let continuous_family_types = 525

let continuous_overhead_factor ~n_types =
  assert (n_types > 0);
  float_of_int continuous_family_types /. float_of_int n_types
