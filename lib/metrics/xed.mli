(** Cross-entropy difference (QAOA quality metric in the paper). *)

val difference : ideal:float array -> noisy:float array -> float
