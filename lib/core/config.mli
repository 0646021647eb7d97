(** Experiment scale configuration ([quick] default; [paper] restores the
    published sample counts). *)

type t = {
  seed : int;
  qv_count : int;
  qaoa_count : int;
  qft_inputs : int;
  fig6_unitaries : int;
  fig7_points : int;
  fig8_grid : int;
  fig8_qv : int;
  fig8_qaoa : int;
  fig8_qft : int;
  fig8_fh : int;
  trajectories : int;
  fh_sizes : int list;
  fig10f_points : int;
  design_max_types : int;
  design_beam : int;
  nuop : Decompose.Nuop.options;
}

val quick : t
val paper : t
val default : t
