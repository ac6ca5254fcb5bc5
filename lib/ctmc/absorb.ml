let absorbing_states c =
  let n = Explore.n_states c in
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if Explore.exit_rate c i = 0.0 then i :: acc else acc)
  in
  collect (n - 1) []

(* Gauss-Seidel on x_i = b_i + sum_j (r_ij / E_i) x_j over transient
   states, each row summed in target order; absorbing states are fixed at
   [absorbing_value i]. The solve is one [Ctmc_solve] profiler phase and
   its sweep count lands in the registry's "ctmc" scope. *)
let solve_first_step ?(tol = 1e-12) ?(max_iter = 1_000_000) ?obs ?profile c
    ~b ~absorbing_value =
  let in_solve f =
    match profile with
    | None -> f ()
    | Some p -> Obs.Profile.span p Obs.Profile.Ctmc_solve f
  in
  in_solve @@ fun () ->
  let n = Explore.n_states c in
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if Explore.exit_rate c i = 0.0 then x.(i) <- absorbing_value i
  done;
  let delta = ref infinity in
  let sweeps = ref 0 in
  while !delta > tol && !sweeps < max_iter do
    incr sweeps;
    let d = ref 0.0 in
    for i = 0 to n - 1 do
      let e = Explore.exit_rate c i in
      if e > 0.0 then begin
        let acc =
          Explore.fold_row c i (fun acc j r -> acc +. (r /. e *. x.(j))) (b i)
        in
        let prev = x.(i) in
        x.(i) <- acc;
        d := Float.max !d (Float.abs (x.(i) -. prev))
      end
    done;
    delta := !d
  done;
  (match obs with
  | None -> ()
  | Some reg ->
      let module R = Obs.Registry in
      R.add (R.counter (R.scope reg "ctmc") "absorb_sweeps") !sweeps);
  if !delta > tol then
    failwith
      (Printf.sprintf
         "Ctmc.Absorb: no convergence after %d sweeps (delta %g); is an \
          absorbing state reachable with probability 1?"
         max_iter !delta);
  x

let from_initial c x =
  List.fold_left
    (fun acc (i, p) -> acc +. (p *. x.(i)))
    0.0 (Explore.initial_dist c)

let mean_time_to_absorption ?tol ?max_iter ?obs ?profile c =
  if absorbing_states c = [] then
    failwith "Ctmc.Absorb: chain has no absorbing state";
  let x =
    solve_first_step ?tol ?max_iter ?obs ?profile c
      ~b:(fun i -> 1.0 /. Explore.exit_rate c i)
      ~absorbing_value:(fun _ -> 0.0)
  in
  from_initial c x

let absorption_probabilities ?tol ?max_iter ?obs ?profile c ~target =
  if absorbing_states c = [] then
    failwith "Ctmc.Absorb: chain has no absorbing state";
  let x =
    solve_first_step ?tol ?max_iter ?obs ?profile c
      ~b:(fun _ -> 0.0)
      ~absorbing_value:(fun i -> if target i then 1.0 else 0.0)
  in
  from_initial c x
