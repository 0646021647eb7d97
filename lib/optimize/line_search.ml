(* Backtracking line search with the Armijo sufficient-decrease condition.

   BFGS directions in this project are well-scaled (the objective is an
   infidelity in [0, 1]), so a simple backtracking search with quadratic
   interpolation converges in a handful of trials. *)

type result = { step : float; f_new : float; evals : int }

(* Armijo constant, geometric shrink per rejected trial, trial budget *)
let c1 = 1e-4
let shrink = 0.5
let max_trials = 40

(* [search f x d ~f0 ~slope ~trial] finds t with
   f(x + t d) <= f0 + c1 * t * slope, where slope = grad . d < 0,
   starting from the full step t = 1.  The trial points are written into
   the caller's [trial] buffer, so no array is allocated. *)
let search f x d ~f0 ~slope ~trial =
  let n = Array.length x in
  assert (Array.length d = n && Array.length trial = n);
  let t = ref 1.0 and k = ref 0 and accepted = ref false in
  let best_step = ref 0.0 and best_f = ref f0 in
  while (not !accepted) && !k < max_trials do
    for i = 0 to n - 1 do
      trial.(i) <- x.(i) +. (!t *. d.(i))
    done;
    let ft = f trial in
    incr k;
    if ft <= f0 +. (c1 *. !t *. slope) && Float.is_finite ft then begin
      best_step := !t;
      best_f := ft;
      accepted := true
    end
    else begin
      (* quadratic interpolation for the next trial, clamped to the
         geometric shrink to guarantee progress *)
      let t_quad =
        let denom = 2.0 *. (ft -. f0 -. (slope *. !t)) in
        if denom > 1e-300 then -.slope *. !t *. !t /. denom else !t *. shrink
      in
      let t' = Float.max (!t *. 0.1) (Float.min t_quad (!t *. shrink)) in
      if Float.is_finite ft && ft < !best_f then begin
        best_step := !t;
        best_f := ft
      end;
      t := t'
    end
  done;
  { step = !best_step; f_new = !best_f; evals = !k }
