open Aa_numerics

type t = Plc of Plc.t | Smooth of smooth

and smooth = {
  name : string;
  cap : float;
  eval : float -> float;
  deriv : float -> float;
  demand : (float -> float) option;
  spec : spec option;
}

and spec =
  | Spec_power of { coeff : float; beta : float }
  | Spec_log of { coeff : float; rate : float }
  | Spec_saturating of { limit : float; halfway : float }
  | Spec_exp_saturating of { limit : float; rate : float }

let of_plc p = Plc p
let cap = function Plc p -> Plc.cap p | Smooth s -> s.cap

let eval t x =
  match t with
  | Plc p -> Plc.eval p x
  | Smooth s -> s.eval (Util.clamp ~lo:0.0 ~hi:s.cap x)

let peak t = eval t (cap t)

let deriv t x =
  match t with
  | Plc p -> Plc.slope_right p x
  | Smooth s -> if x >= s.cap then 0.0 else s.deriv (Float.max 0.0 x)

(* Numeric fallback for Smooth demand: the derivative is nonincreasing, so
   the set {x : deriv x >= lambda} is an initial interval; bisect its right
   endpoint. *)
let demand_by_bisection s lambda =
  if lambda <= 0.0 then s.cap
  else if s.deriv s.cap >= lambda then s.cap
  else if s.deriv 0.0 < lambda then 0.0
  else
    Root.bisect ~f:(fun x -> s.deriv x -. lambda) ~lo:0.0 ~hi:s.cap ()

let demand t lambda =
  match t with
  | Plc p -> Plc.demand p lambda
  | Smooth s -> (
      if lambda <= 0.0 then s.cap
      else
        match s.demand with
        | Some d -> Util.clamp ~lo:0.0 ~hi:s.cap (d lambda)
        | None -> demand_by_bisection s lambda)

let to_plc ?(samples = 64) t =
  match t with
  | Plc p -> p
  | Smooth s ->
      if samples < 3 then invalid_arg "Utility.to_plc: need samples >= 3";
      (* Mix a uniform grid with a geometric one refined near 0, where
         concave utilities have their sharpest curvature. *)
      let uniform = Util.linspace 0.0 s.cap samples in
      let geometric =
        Array.init samples (fun i ->
            s.cap *. (0.5 ** float_of_int (samples - 1 - i)))
      in
      let xs = Array.append (Array.append [| 0.0 |] uniform) geometric in
      let ys = Array.map (fun x -> Float.max 0.0 (s.eval x)) xs in
      let xs, ys = Convex.upper_envelope xs ys in
      Plc.of_arrays ~xs ~ys

let check ?(samples = 257) t =
  let xs = Util.linspace 0.0 (cap t) samples in
  let ys = Array.map (eval t) xs in
  let negative = Array.exists (fun y -> y < 0.0) ys in
  if negative then Error "utility takes a negative value"
  else if not (Convex.is_nondecreasing ~eps:1e-7 ys) then
    Error "utility is not nondecreasing"
  else if not (Convex.is_concave ~eps:1e-6 xs ys) then Error "utility is not concave"
  else Ok ()

let pp ppf = function
  | Plc p -> Plc.pp ppf p
  | Smooth s -> Format.fprintf ppf "smooth[%s, cap=%g]" s.name s.cap

module Shapes = struct
  let require cond msg = if not cond then invalid_arg msg

  let power ~cap ~coeff ~beta =
    require (cap > 0.0) "Shapes.power: cap must be positive";
    require (0.0 < beta && beta <= 1.0) "Shapes.power: beta outside (0, 1]";
    require (coeff >= 0.0) "Shapes.power: negative coeff";
    if Util.feq beta 1.0 then Plc (Plc.capped_linear ~cap ~slope:coeff ~knee:cap)
    else
      Smooth
        {
          name = Printf.sprintf "power(%g, %g)" coeff beta;
          cap;
          eval = (fun x -> coeff *. (x ** beta));
          deriv =
            (fun x -> if Util.feq x 0.0 then Float.infinity else coeff *. beta *. (x ** (beta -. 1.0)));
          demand =
            Some
              (fun lambda ->
                if Util.feq coeff 0.0 then 0.0
                else ((coeff *. beta) /. lambda) ** (1.0 /. (1.0 -. beta)));
          spec = Some (Spec_power { coeff; beta });
        }

  let log_utility ~cap ~coeff ~rate =
    require (cap > 0.0) "Shapes.log_utility: cap must be positive";
    require (rate > 0.0) "Shapes.log_utility: rate must be positive";
    require (coeff >= 0.0) "Shapes.log_utility: negative coeff";
    Smooth
      {
        name = Printf.sprintf "log(%g, %g)" coeff rate;
        cap;
        eval = (fun x -> coeff *. log1p (rate *. x));
        deriv = (fun x -> coeff *. rate /. (1.0 +. (rate *. x)));
        demand =
          Some
            (fun lambda ->
              if Util.feq coeff 0.0 then 0.0 else ((coeff *. rate /. lambda) -. 1.0) /. rate);
        spec = Some (Spec_log { coeff; rate });
      }

  let saturating ~cap ~limit ~halfway =
    require (cap > 0.0) "Shapes.saturating: cap must be positive";
    require (halfway > 0.0) "Shapes.saturating: halfway must be positive";
    require (limit >= 0.0) "Shapes.saturating: negative limit";
    Smooth
      {
        name = Printf.sprintf "saturating(%g, %g)" limit halfway;
        cap;
        eval = (fun x -> limit *. x /. (x +. halfway));
        deriv = (fun x -> limit *. halfway /. ((x +. halfway) *. (x +. halfway)));
        demand =
          Some
            (fun lambda ->
              if Util.feq limit 0.0 then 0.0 else sqrt (limit *. halfway /. lambda) -. halfway);
        spec = Some (Spec_saturating { limit; halfway });
      }

  let exp_saturating ~cap ~limit ~rate =
    require (cap > 0.0) "Shapes.exp_saturating: cap must be positive";
    require (rate > 0.0) "Shapes.exp_saturating: rate must be positive";
    require (limit >= 0.0) "Shapes.exp_saturating: negative limit";
    Smooth
      {
        name = Printf.sprintf "exp_saturating(%g, %g)" limit rate;
        cap;
        eval = (fun x -> limit *. (1.0 -. exp (-.rate *. x)));
        deriv = (fun x -> limit *. rate *. exp (-.rate *. x));
        demand =
          Some
            (fun lambda ->
              if Util.feq limit 0.0 then 0.0 else log (limit *. rate /. lambda) /. rate);
        spec = Some (Spec_exp_saturating { limit; rate });
      }

  let linear ~cap ~slope = Plc (Plc.capped_linear ~cap ~slope ~knee:cap)
  let capped_linear ~cap ~slope ~knee = Plc (Plc.capped_linear ~cap ~slope ~knee)
end
