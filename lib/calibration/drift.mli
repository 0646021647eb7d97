(** Calibration drift and recalibration policy (extends Sec IX).

    Ornstein-Uhlenbeck drift of gate error rates away from their
    calibrated values, and the availability/staleness tradeoff of
    periodic recalibration as the gate-type count grows. *)

type params = {
  diffusion_sigma : float;  (** drift std-dev per sqrt(hour) *)
  step_hours : float;
}

val default : params

val simulate_multiplier_path : Linalg.Rng.t -> params -> hours:float -> float list
(** Error-rate multiplier (>= 1, starts freshly calibrated) at each
    integration step. *)

val mean_multiplier : ?samples:int -> Linalg.Rng.t -> params -> period_hours:float -> float
(** Time-averaged multiplier when recalibrating every [period_hours]. *)

type policy_point = {
  n_types : int;
  period_hours : float;
  calibration_hours : float;
  duty_cycle : float;
  error_multiplier : float;
  effective_fidelity_score : float;
}

val evaluate_policy :
  rng:Linalg.Rng.t ->
  n_types:int ->
  period_hours:float ->
  base_error:float ->
  gates_per_program:int ->
  policy_point
(** One (gate-type count, recalibration period) policy under
    {!Isa.Cost}'s parallel calibration time on the 54-qubit grid and
    {!default} drift, its staleness averaged over 64 sampled paths. *)

val best_policies :
  rng:Linalg.Rng.t ->
  type_counts:int list ->
  base_error:float ->
  gates_per_program:int ->
  policy_point list
(** Best recalibration period per gate-type count, among 4, 8, 16, 24,
    48 and 96 hours, each scored by {!evaluate_policy}. *)

val degrade_calibration :
  Device.Calibration.t ->
  rng:Linalg.Rng.t ->
  drift:params ->
  hours_since_calibration:float ->
  Device.Calibration.t
(** The calibration with an independent drift multiplier applied to
    every stored gate error (clamped to [1e-6, 0.5]), drawn in the error
    table's fold order.  The input is unchanged. *)

val perturb : Linalg.Rng.t -> params -> hours:float -> Device.t -> Device.t
(** A drifted snapshot: every stored two-qubit error and the
    continuous-family scale inflate by independent multipliers (>= 1),
    [hours] accumulates into the provenance.  Pure — the input device is
    unchanged. *)
