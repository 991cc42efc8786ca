open Aa_numerics

let interpolant pts =
  if Array.length pts < 2 then invalid_arg "Sampled.of_points: need >= 2 points";
  let xs = Array.map fst pts and ys = Array.map snd pts in
  if Util.fne xs.(0) 0.0 then invalid_arg "Sampled.of_points: domain must start at 0";
  Array.iter (fun y -> if y < 0.0 then invalid_arg "Sampled.of_points: negative value") ys;
  Pchip.create ~xs ~ys

let of_points ?(resolution = 128) pts =
  let p = interpolant pts in
  let xs, ys = Pchip.sample p resolution in
  (* Clip interpolation undershoot and enforce concavity by envelope. *)
  for i = 0 to Array.length ys - 1 do
    (* [Float.max 0.0 y] without boxing: negatives and -0 become +0,
       NaN stays *)
    let y = ys.(i) in
    if Float.sign_bit y && not (Float.is_nan y) then ys.(i) <- 0.0
  done;
  let xs, ys = Convex.upper_envelope xs ys in
  Utility.of_plc (Plc.of_arrays ~xs ~ys)

let envelope_deviation ?(resolution = 128) pts =
  let p = interpolant pts in
  let u = of_points ~resolution pts in
  let peak = Utility.peak u in
  if peak <= 0.0 then 0.0
  else begin
    let xs, _ = Pchip.sample p (4 * resolution) in
    let worst = ref 0.0 in
    Array.iter
      (fun x ->
        let d = Float.abs (Utility.eval u x -. Pchip.eval p x) in
        if d > !worst then worst := d)
      xs;
    !worst /. peak
  end
