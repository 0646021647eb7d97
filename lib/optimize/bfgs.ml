(* BFGS quasi-Newton minimizer with an explicit inverse-Hessian
   approximation.

   This is the optimizer the paper uses (scipy's BFGS) for NuOp template
   fitting: dimensions are small (6..40 angles), objectives are smooth
   infidelities, gradients are central differences: {!Grad.central} over
   the objective, or a caller's equivalent that computes them faster. *)

type options = {
  max_iter : int;
  grad_tol : float;  (** stop when the gradient norm is below *)
  f_tol : float;  (** stop when the objective drops below (target value) *)
  step_tol : float;
      (** stop when steps stagnate: the RELATIVE objective decrease of an
          accepted step falls below this.  An absolute cutoff here is a
          bug — it would abort tiny-but-real progress on objectives whose
          scale is below the cutoff (infidelities near convergence). *)
  fd_step : float;  (** finite-difference step for the gradient *)
}

let default_options =
  { max_iter = 200; grad_tol = 1e-8; f_tol = -.infinity; step_tol = 1e-12; fd_step = 1e-7 }

type outcome = Converged | Target_reached | Max_iterations | Stagnated

type result = {
  x : float array;
  f : float;
  iterations : int;
  evaluations : int;
  gradients : int;
  outcome : outcome;
}

(* h <- (I - rho s y^T) h (I - rho y s^T) + rho s s^T, the standard BFGS
   inverse-Hessian update, done in place on a dense n x n float matrix;
   [hy] is caller-owned scratch for H y. *)
let update_inverse_hessian h s y ~hy n =
  let rho_denom = Grad.dot y s in
  if rho_denom > 1e-12 then begin
    let rho = 1.0 /. rho_denom in
    (* hy = H y *)
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (h.((i * n) + j) *. y.(j))
      done;
      hy.(i) <- !acc
    done;
    let yhy = Grad.dot y hy in
    let coeff = (1.0 +. (rho *. yhy)) *. rho in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        h.((i * n) + j) <-
          h.((i * n) + j)
          +. (coeff *. s.(i) *. s.(j))
          -. (rho *. ((s.(i) *. hy.(j)) +. (hy.(i) *. s.(j))))
      done
    done
  end

(* Every buffer an iteration touches is allocated here, once per call, so
   an iteration allocates no arrays: only the line search's result record
   and the floats boxed across calls into Grad and Line_search, a fixed
   handful of words whatever the dimension. *)
let minimize ?(options = default_options) ?gradient f x0 =
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let evals = ref 0 and grads = ref 0 in
  let f_counted z =
    incr evals;
    f z
  in
  let h = options.fd_step in
  let g = Array.make n 0.0 and g_new = Array.make n 0.0 in
  let xp = Array.make n 0.0 and trial = Array.make n 0.0 and hy = Array.make n 0.0 in
  (* a supplied gradient counts the 2n probes of the central difference
     it stands for *)
  let gradient_at x ~g =
    incr grads;
    match gradient with
    | None -> Grad.central ~h f_counted x ~g ~xp
    | Some grad ->
      evals := !evals + (2 * n);
      grad x ~g
  in
  let fx = ref (f_counted x) in
  gradient_at x ~g;
  (* inverse Hessian approximation, initialized to the identity *)
  let hinv = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    hinv.((i * n) + i) <- 1.0
  done;
  let d = Array.make n 0.0 in
  let s = Array.make n 0.0 in
  let y = Array.make n 0.0 in
  let iter = ref 0 in
  let outcome = ref Max_iterations in
  (try
     while !iter < options.max_iter do
       incr iter;
       if !fx <= options.f_tol then begin
         outcome := Target_reached;
         raise Exit
       end;
       let gnorm = Grad.norm g in
       if gnorm <= options.grad_tol then begin
         outcome := Converged;
         raise Exit
       end;
       (* d = -H g *)
       for i = 0 to n - 1 do
         let acc = ref 0.0 in
         for j = 0 to n - 1 do
           acc := !acc +. (hinv.((i * n) + j) *. g.(j))
         done;
         d.(i) <- -. !acc
       done;
       let slope = Grad.dot g d in
       (* If numerical error made d a non-descent direction, restart from
          steepest descent. *)
       let slope =
         if slope >= 0.0 then begin
           for i = 0 to n - 1 do
             for j = 0 to n - 1 do
               hinv.((i * n) + j) <- (if i = j then 1.0 else 0.0)
             done;
             d.(i) <- -.g.(i)
           done;
           -.(gnorm *. gnorm)
         end
         else slope
       in
       let ls = Line_search.search f_counted x d ~f0:!fx ~slope ~trial in
       if ls.step <= 0.0 || ls.f_new >= !fx then begin
         (* the line search found no decrease at all *)
         outcome := Stagnated;
         raise Exit
       end;
       (* Accept the step first — even a tiny improvement is kept — and
          only then test for stagnation, relative to the objective scale
          so progress at any magnitude counts (a gradient below grad_tol
          still exits through the check at the top of the loop). *)
       for i = 0 to n - 1 do
         s.(i) <- ls.step *. d.(i);
         x.(i) <- x.(i) +. s.(i)
       done;
       let f_prev = !fx in
       fx := ls.f_new;
       if
         f_prev -. ls.f_new
         <= options.step_tol *. (Float.abs f_prev +. Float.abs ls.f_new +. epsilon_float)
       then begin
         outcome := Stagnated;
         raise Exit
       end;
       gradient_at x ~g:g_new;
       for i = 0 to n - 1 do
         y.(i) <- g_new.(i) -. g.(i);
         g.(i) <- g_new.(i)
       done;
       update_inverse_hessian hinv s y ~hy n
     done
   with Exit -> ());
  {
    x;
    f = !fx;
    iterations = !iter;
    evaluations = !evals;
    gradients = !grads;
    outcome = !outcome;
  }
