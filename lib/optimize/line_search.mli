(** Backtracking Armijo line search with quadratic interpolation. *)

type result = {
  step : float;  (** accepted step length; 0 when no progress was made *)
  f_new : float;  (** objective at the accepted point *)
  evals : int;  (** number of objective evaluations used *)
}

val search :
  (float array -> float) ->
  float array ->
  float array ->
  f0:float ->
  slope:float ->
  trial:float array ->
  result
(** [search f x d ~f0 ~slope ~trial] finds a step [t] along direction [d]
    from [x] satisfying the Armijo condition
    [f(x + t d) <= f0 + c1 t slope] with [c1 = 1e-4].  It starts from
    the full step [t = 1] and makes at most 40 trials, each a tenth to a
    half of the last; when none is accepted it returns the best trial
    seen, or step 0 if none improved on [f0].  [slope] must be the
    directional derivative [grad f(x) . d] (negative for a descent
    direction).  Trial points are written into [trial] (same length as
    [x], not aliasing it), so no array is allocated. *)
