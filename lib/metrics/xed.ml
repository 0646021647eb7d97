(* Cross-entropy difference (Boixo et al., Nature Physics 14, 595).

   XED = (H(unif, ideal) - H(noisy, ideal)) / (H(unif, ideal) - H(ideal, ideal))

   1 for a perfect execution, 0 when the output is as uninformative as
   the uniform distribution, negative when worse. *)

let difference ~ideal ~noisy =
  assert (Array.length ideal = Array.length noisy);
  let dim = Array.length ideal in
  let unif = Dist.uniform dim in
  let h_unif = Dist.cross_entropy unif ideal in
  let h_noisy = Dist.cross_entropy noisy ideal in
  let h_ideal = Dist.entropy ideal in
  let denom = h_unif -. h_ideal in
  if Float.abs denom < 1e-12 then 0.0 else (h_unif -. h_noisy) /. denom
