(** Finite-difference gradients and small vector helpers. *)

val central :
  h:float ->
  (float array -> float) ->
  float array ->
  g:float array ->
  xp:float array ->
  unit
(** [central ~h f x ~g ~xp] writes the central-difference gradient of [f]
    at [x] (2n evaluations, step [h]) into [g], using [xp] as the probe
    point.  Both buffers have [x]'s length and must not alias it; no
    array is allocated. *)

val norm : float array -> float
val dot : float array -> float array -> float
