(* Experiment scale configuration.

   The paper averages 100 random circuits with 10000 shots on a 32-thread
   Xeon; [quick] shrinks sample counts so `bench/main.exe all` finishes on
   one core in minutes while preserving every qualitative shape.  [paper]
   restores the published scale. *)

type t = {
  seed : int;
  qv_count : int;  (** random QV circuits per experiment *)
  qaoa_count : int;  (** random QAOA circuits per experiment *)
  qft_inputs : int;  (** QFT input basis states averaged *)
  fig6_unitaries : int;  (** random unitaries per application in Fig 6 *)
  fig7_points : int;  (** error-rate sweep points in Fig 7 *)
  fig8_grid : int;  (** heatmap points per axis (paper: 19) *)
  fig8_qv : int;
  fig8_qaoa : int;
  fig8_qft : int;
  fig8_fh : int;
  trajectories : int;  (** Monte Carlo trajectories for Fig 10f *)
  fh_sizes : int list;  (** Fermi-Hubbard circuit sizes for Fig 10f *)
  fig10f_points : int;  (** error-rate sweep points in Fig 10f *)
  design_max_types : int;  (** largest set size the design search explores *)
  design_beam : int;  (** beam width of the design search *)
  nuop : Decompose.Nuop.options;
}

let quick =
  {
    seed = 2021;
    qv_count = 8;
    qaoa_count = 8;
    qft_inputs = 3;
    fig6_unitaries = 12;
    fig7_points = 5;
    fig8_grid = 7;
    fig8_qv = 10;
    fig8_qaoa = 8;
    fig8_qft = 5;
    fig8_fh = 6;
    trajectories = 12;
    fh_sizes = [ 10; 14 ];
    fig10f_points = 4;
    design_max_types = 8;
    design_beam = 2;
    nuop = { Decompose.Nuop.default_options with starts = 3 };
  }

let paper =
  {
    seed = 2021;
    qv_count = 100;
    qaoa_count = 100;
    qft_inputs = 8;
    fig6_unitaries = 100;
    fig7_points = 9;
    fig8_grid = 19;
    fig8_qv = 1000;
    fig8_qaoa = 1000;
    fig8_qft = 10;
    fig8_fh = 60;
    trajectories = 40;
    fh_sizes = [ 10; 20 ];
    fig10f_points = 6;
    design_max_types = 8;
    design_beam = 3;
    nuop = Decompose.Nuop.default_options;
  }

let default = quick
