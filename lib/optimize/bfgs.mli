(** BFGS quasi-Newton minimizer (dense inverse-Hessian form).

    The optimizer behind NuOp template fitting, mirroring the paper's use
    of scipy's BFGS with finite-difference gradients. *)

type options = {
  max_iter : int;
  grad_tol : float;  (** stop when ||grad||_2 falls below this *)
  f_tol : float;  (** stop as soon as the objective drops below this *)
  step_tol : float;
      (** stop when steps stagnate: relative objective decrease of an
          accepted step below this (the improving step itself is kept) *)
  fd_step : float;  (** finite-difference step for gradients *)
}

val default_options : options

type outcome = Converged | Target_reached | Max_iterations | Stagnated

type result = {
  x : float array;
  f : float;
  iterations : int;
  evaluations : int;
      (** total objective evaluations, gradients included: each gradient
          counts the 2n probes of its central difference *)
  gradients : int;  (** gradient evaluations *)
  outcome : outcome;
}

val minimize :
  ?options:options ->
  ?gradient:(float array -> g:float array -> unit) ->
  (float array -> float) ->
  float array ->
  result
(** [minimize f x0] minimizes [f] starting from [x0]. [x0] is not
    mutated.  [gradient x ~g] writes the gradient of [f] at [x] into
    [g] (default: {!Grad.central} over [f] with step
    [options.fd_step]); a supplied one stands for that central
    difference, so [evaluations] counts 2n per call whatever it costs.
    Gradient, probe, trial and scratch buffers are allocated once per
    call; iterations allocate no arrays. *)
