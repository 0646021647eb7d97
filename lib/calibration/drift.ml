(* Calibration drift and recalibration policy (extends Sec IX).

   The paper notes that control parameters drift over time, causing gate
   error-rate fluctuations of up to 10x [4], which forces periodic
   recalibration.  This module models the drift as an Ornstein-Uhlenbeck
   excursion of each gate's error rate away from its freshly calibrated
   value and evaluates recalibration policies: with more gate types,
   recalibration takes longer (Isa.Cost), so the device spends a larger
   fraction of wall time calibrating or runs with staler — noisier —
   gates.  The sweep exposes the same discrete-vs-continuous sweet spot
   as Fig 11, now on the time axis. *)

type params = {
  diffusion_sigma : float;
      (** drift std-dev per sqrt(hour): control parameters random-walk
          away from their tuned values until the next calibration (Foxen
          et al. report error fluctuations of up to ~10x over days) *)
  step_hours : float;  (** integration step *)
}

let default = { diffusion_sigma = 0.35; step_hours = 0.25 }

(* One Brownian sample path of the error multiplier, starting freshly
   calibrated (multiplier 1): x random-walks, multiplier = 1 + |x|, so
   staleness keeps growing until recalibration. *)
let simulate_multiplier_path rng p ~hours =
  assert (hours > 0.0);
  let steps = max 1 (int_of_float (Float.ceil (hours /. p.step_hours))) in
  let dt = hours /. float_of_int steps in
  let noise_scale = p.diffusion_sigma *. Float.sqrt dt in
  let x = ref 0.0 in
  List.init steps (fun _ ->
      x := !x +. (noise_scale *. Linalg.Rng.gaussian rng);
      1.0 +. Float.abs !x)

(* Time-averaged error multiplier when recalibrating every
   [period_hours]. *)
let mean_multiplier ?(samples = 64) rng p ~period_hours =
  assert (samples > 0);
  let total = ref 0.0 and count = ref 0 in
  for _ = 1 to samples do
    List.iter
      (fun m ->
        total := !total +. m;
        incr count)
      (simulate_multiplier_path rng p ~hours:period_hours)
  done;
  !total /. float_of_int !count

type policy_point = {
  n_types : int;
  period_hours : float;  (** wall time between recalibration campaigns *)
  calibration_hours : float;  (** length of one campaign *)
  duty_cycle : float;  (** fraction of wall time available for programs *)
  error_multiplier : float;  (** mean error inflation due to staleness *)
  effective_fidelity_score : float;
      (** duty_cycle x (1 - multiplier x base_error)^gates_per_program *)
}

(* Evaluate one (gate-type count, recalibration period) policy under the
   Sec IX cost model and the default drift.  A campaign calibrates the
   types in parallel batches on the 54-qubit grid (4 coloring batches).
   The score multiplies availability by the program fidelity of a
   reference workload under the inflated error rate. *)
let evaluate_policy ~rng ~n_types ~period_hours ~base_error ~gates_per_program =
  assert (period_hours > 0.0);
  let calibration_hours =
    (Isa.Cost.of_type_count ~topology:(Isa.Cost.grid_topology 54) n_types)
      .Isa.Cost.hours_parallel
  in
  let duty_cycle = period_hours /. (period_hours +. calibration_hours) in
  let error_multiplier = mean_multiplier rng default ~period_hours in
  let inflated = Float.min 0.5 (base_error *. error_multiplier) in
  let program_fidelity = (1.0 -. inflated) ** float_of_int gates_per_program in
  {
    n_types;
    period_hours;
    calibration_hours;
    duty_cycle;
    error_multiplier;
    effective_fidelity_score = duty_cycle *. program_fidelity;
  }

let periods = [ 4.0; 8.0; 16.0; 24.0; 48.0; 96.0 ]

(* For each gate-type count, the best recalibration period and its
   score. *)
let best_policies ~rng ~type_counts ~base_error ~gates_per_program =
  List.map
    (fun n_types ->
      let candidates =
        List.map
          (fun period_hours ->
            evaluate_policy ~rng ~n_types ~period_hours ~base_error ~gates_per_program)
          periods
      in
      List.fold_left
        (fun best c ->
          if c.effective_fidelity_score > best.effective_fidelity_score then c else best)
        (List.hd candidates) (List.tl candidates))
    type_counts

(* A calibration with an independent drift multiplier on every stored
   gate error — used to simulate a stale device. *)
let degrade_calibration cal ~rng ~drift ~hours_since_calibration =
  let multiplier () =
    match
      List.rev (simulate_multiplier_path rng drift ~hours:hours_since_calibration)
    with
    | last :: _ -> last
    | [] -> 1.0
  in
  Device.Calibration.map_twoq_errors cal (fun _edge _name e -> e *. multiplier ())

(* A drifted snapshot of a whole device: inflate every stored fixed-type
   error and the continuous-family scale by independent multipliers (all
   >= 1 by construction), and record the staleness in the provenance.
   1Q and readout errors are left alone — single-qubit gates recalibrate
   cheaply and continuously on real hardware, the expensive drift is in
   the two-qubit entanglers (Sec IX).  The input device is untouched. *)
let perturb rng p ~hours device =
  assert (hours > 0.0);
  let cal =
    degrade_calibration (Device.calibration device) ~rng ~drift:p
      ~hours_since_calibration:hours
  in
  let family_multiplier =
    match List.rev (simulate_multiplier_path rng p ~hours) with
    | last :: _ -> last
    | [] -> 1.0
  in
  let cal =
    Device.Calibration.with_family_error_scale cal
      (Device.Calibration.family_error_scale cal *. family_multiplier)
  in
  Device.add_drift (Device.with_calibration device cal) ~hours
