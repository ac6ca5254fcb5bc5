(* The ITUA performance benchmark: four workloads, one process, one OCaml
   domain.

     itua_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                    [--spans FILE]

   An untraced run (--trace 0) repeats the workload's measured pass for
   about S seconds, at least twice, and prints the end-to-end metrics. A
   traced run (--trace 1) times every layer from outside, through calls
   into its public functions, records a span around each call and prints
   the per-layer metrics. Every pass checks its outputs. The last stdout
   line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
   README.md documents the workloads, metrics and checks. *)

let default_seed = 20030622

(* --- measurement --- *)

let now_ns = Obs.Clock.now_ns
let seconds_since = Obs.Clock.seconds_since

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

(* Nearest-rank quantile. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  a.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

(* Words this domain has allocated so far: the benchmark's own GC window,
   read around the measured calls. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* --- tracing: spans kept in memory, written out at exit --- *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type tracer = {
  mutable on : bool;
  mutable spans : span list;  (** most recent first *)
  mutable open_ : int list;
  mutable next_id : int;
}

let tracer = { on = false; spans = []; open_ = []; next_id = 1 }

let span name f =
  if not tracer.on then f ()
  else begin
    let id = tracer.next_id in
    tracer.next_id <- id + 1;
    let parent = match tracer.open_ with p :: _ -> p | [] -> 0 in
    tracer.open_ <- id :: tracer.open_;
    let start_ns = now_ns () in
    Fun.protect f ~finally:(fun () ->
        tracer.open_ <- List.tl tracer.open_;
        tracer.spans <-
          { id; parent; name; start_ns; stop_ns = now_ns () } :: tracer.spans)
  end

(* [timed name f] runs [f] inside span [name]; returns its result and
   its wall seconds. *)
let timed name f =
  span name (fun () ->
      let t0 = now_ns () in
      let r = f () in
      (r, seconds_since t0))

let with_tracing on f =
  let was = tracer.on in
  tracer.on <- on;
  Fun.protect f ~finally:(fun () -> tracer.on <- was)

let span_seconds s = Obs.Clock.ns_to_s (Int64.sub s.stop_ns s.start_ns)

(* Spans in the order they started. *)
let recorded_spans () =
  List.sort (fun a b -> Int.compare a.id b.id) tracer.spans

(* Per span name: count, total seconds, and self seconds (duration minus
   the part covered by child spans), in order of first appearance. *)
let span_summary () =
  let spans = recorded_spans () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev +. span_seconds s))
    spans;
  let rows = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        span_seconds s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      match Hashtbl.find_opt rows s.name with
      | Some (n, total, own) ->
          Hashtbl.replace rows s.name
            (n + 1, total +. span_seconds s, own +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace rows s.name (1, span_seconds s, self))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find rows name)) !order

let write_spans path ~run_id ~host =
  let spans = recorded_spans () in
  let t0 =
    List.fold_left (fun acc s -> Int64.min acc s.start_ns) Int64.max_int spans
  in
  let rel ns = Report.Json.Num (Int64.to_float (Int64.sub ns t0)) in
  let open Report.Json in
  Report.write_jsonl path
    (Obj [ ("run", Str run_id); ("host", host) ]
    :: List.map
         (fun s ->
           Obj
             [
               ("run", Str run_id);
               ("id", int s.id);
               ("parent", int s.parent);
               ("name", Str s.name);
               ("start_ns", rel s.start_ns);
               ("end_ns", rel s.stop_ns);
             ])
         spans)

(* --- workloads --- *)

type sim_point = {
  params : Itua.Params.t;
  horizon : float;
  rewards : Itua.Model.handles -> Sim.Reward.spec list;
}

type kind =
  | Sim of { points : sim_point list; reps : int }
      (** [reps] replications of every point per pass *)
  | Exact of { params : Itua.Params.t; reference : reference option }
  | Check of Itua.Params.t

(* State count, mean time to absorption, and unreliability by horizon. *)
and reference = int * float * (float * float) list

let base = Itua.Params.default

let fig3_rewards h =
  Itua.Measures.
    [
      unavailability h ~until:5.0;
      unreliability h ~until:5.0;
      fraction_corrupt_in_excluded h;
      fraction_domains_excluded h ~at:5.0;
    ]

(* The one reward that is undefined in replications without a domain
   exclusion; every other reward is defined in every replication. *)
let conditional_reward = "fraction_corrupt_in_excluded"

(* Study 4.1 (Figure 3): 12 hosts in six domain layouts x 2/4/6/8
   applications, domain exclusion, first 5 hours. *)
let sim_fig3 =
  Sim
    {
      points =
        List.concat_map
          (fun (nd, nh) ->
            List.map
              (fun na ->
                {
                  params =
                    {
                      base with
                      Itua.Params.num_domains = nd;
                      hosts_per_domain = nh;
                      num_apps = na;
                    };
                  horizon = 5.0;
                  rewards = fig3_rewards;
                })
              [ 2; 4; 6; 8 ])
          [ (12, 1); (6, 2); (4, 3); (3, 4); (2, 6); (1, 12) ];
      reps = 200;
    }

(* One Study 4.3 (Figure 5) point: 10 x 3 hosts, 4 applications, host
   exclusion, x5 corruption, spread 10, literal rate reading. *)
let sim_fig5 =
  Sim
    {
      points =
        [
          {
            params =
              {
                base with
                Itua.Params.num_domains = 10;
                hosts_per_domain = 3;
                num_apps = 4;
                policy = Itua.Params.Host_exclusion;
                corruption_multiplier = 5.0;
                spread_rate_domain = 10.0;
                spread_effect_domain = 10.0;
                rate_scale = 1.0;
              };
            horizon = 10.0;
            rewards =
              (fun h ->
                Itua.Measures.
                  [
                    unavailability h ~until:5.0;
                    unavailability h ~until:10.0;
                    unreliability h ~until:5.0;
                    unreliability h ~until:10.0;
                  ]);
          };
        ];
      reps = 200;
    }

let topology nd nh na nr =
  {
    base with
    Itua.Params.num_domains = nd;
    hosts_per_domain = nh;
    num_apps = na;
    num_reps = nr;
  }

(* What [itua_sim mtta] computes, at 2 domains x 1 host x 1 app x 1
   replica. The reference outputs were computed by this code at the
   commit that introduced the benchmark. *)
let exact_ctmc =
  Exact
    {
      params = topology 2 1 1 1;
      reference =
        Some
          ( 51247,
            45.308362111783978,
            [
              (5.0, 0.031764470667620809);
              (10.0, 0.061321710992604743);
              (24.0, 0.12725990359699138);
            ] );
    }

(* What [itua_sim check --invariants --strict --symmetry] computes, at
   5 x 2 hosts x 4 apps x 7 replicas. *)
let check_laws = Check (topology 5 2 4 7)

let workloads =
  [
    ("sim_fig3", sim_fig3);
    ("sim_fig5", sim_fig5);
    ("exact_ctmc", exact_ctmc);
    ("check_laws", check_laws);
  ]

(* Layers a workload does not run are measured in its traced run on the
   smallest ITUA configuration, so every traced run reports every layer. *)
let probe_params = topology 1 1 1 1

let probe_sim =
  Sim
    {
      points =
        [ { params = probe_params; horizon = 5.0; rewards = fig3_rewards } ];
      reps = 1000;
    }

let probe_exact = Exact { params = probe_params; reference = None }
let probe_check = Check probe_params

let probes = function
  | Sim _ -> [ probe_exact; probe_check ]
  | Exact _ -> [ probe_sim; probe_check ]
  | Check _ -> [ probe_sim; probe_exact ]

(* --- passes --- *)

(* One measured pass: the output a user waits for, checked. *)
type pass = {
  setup : float;
      (** seconds in [Itua.Model.build]: a sweep's builds during the pass,
          or the mean build of a single-model workload *)
  wall : float;  (** seconds of the work a user waits for, setup excluded *)
  size : int * int;  (** places and activities of the models used *)
  failures : string list;  (** failed output checks *)
  digest : string;  (** summary of the outputs, equal on every pass *)
  layer : (string * float * string) list;  (** per-layer metrics *)
  counts : (string * int) list;  (** exact counts, for the determinism check *)
}

let digest_of parts = Digest.to_hex (Digest.string (String.concat ";" parts))

let build params = timed "itua.model.build" (fun () -> Itua.Model.build params)

let size_of (h : Itua.Model.handles) =
  let m = h.Itua.Model.model in
  (San.Model.n_places m, Array.length (San.Model.activities m))

let sim_spec p (h : Itua.Model.handles) =
  Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:p.horizon (p.rewards h)

let check_sim ~reps results =
  List.concat_map
    (List.concat_map (fun (r : Sim.Runner.result) ->
         let mean = r.Sim.Runner.ci.Stats.Ci.mean in
         List.filter_map Fun.id
           [
             (if r.n_runs <> reps then
                Some
                  (Printf.sprintf "%s: %d runs, expected %d" r.name r.n_runs
                     reps)
              else None);
             (if r.name <> conditional_reward && r.n_defined <> reps then
                Some
                  (Printf.sprintf "%s: defined in %d of %d runs" r.name
                     r.n_defined reps)
              else None);
             (if r.n_defined > 0 && not (mean >= 0.0 && mean <= 1.0) then
                Some
                  (Printf.sprintf "%s: estimate %h outside [0,1]" r.name mean)
              else None);
           ]))
    results

let sim_digest results =
  digest_of
    (List.concat_map
       (List.map (fun (r : Sim.Runner.result) ->
            Printf.sprintf "%s %h %h %d" r.Sim.Runner.name r.ci.Stats.Ci.mean
              r.ci.Stats.Ci.half_width r.n_defined))
       results)

(* A study sweep run the way [Itua.Study] runs one: each point's model is
   built, simulated and dropped before the next. Traced, engine telemetry
   and the phase profiler are attached, giving the executor-loop
   metrics. *)
let sim_pass ~traced ~seed ~reps points =
  let profile = if traced then Some (Obs.Profile.create ()) else None in
  let setup = ref 0.0 and wall = ref 0.0 and places = ref 0 and acts = ref 0 in
  let runs = ref 0 and events = ref 0 and chain_steps = ref 0 in
  let pops = ref 0 and stale = ref 0 in
  let results =
    List.map
      (fun p ->
        let h, dt = build p.params in
        setup := !setup +. dt;
        let np, na = size_of h in
        places := !places + np;
        acts := !acts + na;
        let spec = sim_spec p h in
        let metrics =
          if traced then Some (Sim.Metrics.create ~model:h.Itua.Model.model)
          else None
        in
        let r, dt =
          timed "sim.runner.run" (fun () ->
              Sim.Runner.run ~domains:1 ?metrics ?profile ~seed ~reps spec)
        in
        wall := !wall +. dt;
        Option.iter
          (fun (x : Sim.Metrics.t) ->
            runs := !runs + x.runs;
            events := !events + x.events;
            chain_steps := !chain_steps + x.chain_steps;
            pops := !pops + x.pops;
            stale := !stale + x.stale_pops)
          metrics;
        r)
      points
  in
  let layer =
    match profile with
    | None -> []
    | Some p ->
        let self ph = Obs.Profile.self_seconds p ph in
        let per a b = float a /. float (Int.max 1 b) in
        [
          ("executor.events_per_rep", per !events !runs, "count");
          ("executor.stabilize_s", self Obs.Profile.Stabilize, "s");
          ("executor.propagate_s", self Obs.Profile.Propagate, "s");
          ("executor.sample_s", self Obs.Profile.Sample, "s");
          ( "executor.heap_s",
            self Obs.Profile.Heap_push +. self Obs.Profile.Heap_pop,
            "s" );
          ( "executor.unattributed_s",
            !wall -. Obs.Profile.attributed_seconds p,
            "s" );
          ( "executor.samples_per_pop",
            per (Obs.Profile.count p Obs.Profile.Sample) !pops,
            "ratio" );
          ("executor.stale_pop_frac", per !stale !pops, "ratio");
          ("executor.chain_steps", float !chain_steps, "count");
          ("executor.heap_pops", float !pops, "count");
        ]
  in
  {
    setup = !setup;
    wall = !wall;
    size = (!places, !acts);
    failures = check_sim ~reps results;
    digest = sim_digest results;
    layer;
    counts =
      (if traced then
         [
           ("executor.events", !events);
           ("executor.chain_steps", !chain_steps);
           ("executor.heap_pops", !pops);
         ]
       else []);
  }

(* Calls [f stream] for replications [0 .. n-1], each on the substream
   [Sim.Runner.run] gives it. *)
let iter_replications ~seed n f =
  let base = ref (Prng.Stream.substream (Prng.Stream.create ~seed) 0) in
  for i = 0 to n - 1 do
    if i > 0 then base := Prng.Stream.successor !base;
    f (Prng.Stream.substream !base 0)
  done

(* Per-replication costs on every point's model: [Sim.Executor.run] to a
   horizon no event reaches (setup alone), at least 200 times in all; and
   every replication as its own [Sim.Runner.run_one] call, whose
   per-reward means must equal [Sim.Runner.run]'s bit for bit.
   Allocation is read over whole loops: OCaml 5 updates its GC counters
   in batches, so a window around one call misreads it. *)
let sim_extras ~seed ~reps points =
  let config = Sim.Executor.config ~horizon:1e-9 () in
  let per_model = Int.max 10 (200 / List.length points) in
  (* At least 1000 replications, so that ten lie beyond the p99. *)
  let reps = Int.max reps (1000 / List.length points) in
  let setup_us = ref [] and setup_words = ref 0.0 and setup_events = ref 0 in
  let rep_us = ref [] and rep_words = ref 0.0 and failures = ref [] in
  let words_of f =
    let w0 = allocated_words () in
    f ();
    allocated_words () -. w0
  in
  List.iter
    (fun p ->
      let h, _ = build p.params in
      let spec = sim_spec p h in
      let model = h.Itua.Model.model in
      setup_words :=
        !setup_words
        +. words_of (fun () ->
               iter_replications ~seed per_model (fun stream ->
                   let o, dt =
                     timed "sim.executor.run" (fun () ->
                         Sim.Executor.run ~model ~config ~stream
                           ~observer:Sim.Observer.nop ())
                   in
                   setup_us := (1e6 *. dt) :: !setup_us;
                   setup_events := !setup_events + o.Sim.Executor.events));
      let results, _ =
        timed "sim.runner.run" (fun () ->
            Sim.Runner.run ~domains:1 ~seed ~reps spec)
      in
      let accs = List.map (fun _ -> Stats.Welford.create ()) results in
      rep_words :=
        !rep_words
        +. words_of (fun () ->
               iter_replications ~seed reps (fun stream ->
                   let values, dt =
                     timed "sim.runner.run_one" (fun () ->
                         Sim.Runner.run_one spec stream)
                   in
                   rep_us := (1e6 *. dt) :: !rep_us;
                   List.iteri
                     (fun j acc ->
                       if not (Float.is_nan values.(j)) then
                         Stats.Welford.add acc values.(j))
                     accs));
      List.iter2
        (fun acc (r : Sim.Runner.result) ->
          if
            Stats.Welford.count acc <> r.Sim.Runner.n_defined
            || (r.n_defined > 0
               && not (Float.equal (Stats.Welford.mean acc) r.ci.Stats.Ci.mean))
          then
            failures :=
              (r.name ^ ": run_one replications disagree with Runner.run")
              :: !failures)
        accs results)
    points;
  if !setup_events > 0 then
    failures := "an event fired before the 1e-9 horizon" :: !failures;
  let n_setup = float (List.length !setup_us) in
  let n_reps = List.length !rep_us in
  ( [
      ("executor.setup_us", median !setup_us, "us");
      ("executor.setup_words", !setup_words /. n_setup, "words");
      ("runner.rep_us.p50", median !rep_us, "us");
      ("runner.rep_us.p99", quantile 0.99 !rep_us, "us");
      ("runner.rep_samples", float n_reps, "count");
      ("runner.alloc_words_per_rep", !rep_words /. float n_reps, "words");
    ],
    !failures )

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b

(* [itua_sim mtta]: explore, mean time to absorption, and unreliability
   at 5/10/24 h. *)
let ctmc_pass ~traced ~reference (h : Itua.Model.handles) =
  let w0 = allocated_words () in
  let c, explore_s =
    timed "ctmc.explore" (fun () -> Ctmc.Explore.explore h.Itua.Model.model)
  in
  let explore_words = allocated_words () -. w0 in
  let mtta, mtta_s =
    timed "ctmc.absorb.mtta" (fun () -> Ctmc.Absorb.mean_time_to_absorption c)
  in
  let unrel =
    List.map
      (fun t ->
        let v, dt =
          timed "ctmc.measure.ever" (fun () ->
              Ctmc.Measure.ever c ~until:t (Itua.Model.improper h 0))
        in
        ((t, v), dt))
      [ 5.0; 10.0; 24.0 ]
  in
  let ever_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 unrel in
  let unrel = List.map fst unrel in
  let states = Ctmc.Explore.n_states c in
  let failures =
    match reference with
    | Some (ref_states, ref_mtta, ref_unrel) ->
        (if states = ref_states then []
         else [ Printf.sprintf "states %d, reference %d" states ref_states ])
        @ (if rel_close mtta ref_mtta then []
           else [ Printf.sprintf "MTTA %h, reference %h" mtta ref_mtta ])
        @ List.concat
            (List.map2
               (fun (t, v) (_, r) ->
                 if rel_close v r then []
                 else
                   [
                     Printf.sprintf "unreliability [0,%g] %h, reference %h" t
                       v r;
                   ])
               unrel ref_unrel)
    | None ->
        List.filter_map
          (fun (t, v) ->
            if v >= 0.0 && v <= 1.0 then None
            else
              Some
                (Printf.sprintf "unreliability [0,%g] %h outside [0,1]" t v))
          unrel
        @ if mtta > 0.0 then [] else [ "MTTA not positive" ]
  in
  let count_transitions () =
    let n = ref 0 in
    for i = 0 to states - 1 do
      n := !n + List.length (Ctmc.Explore.transitions c i)
    done;
    !n
  in
  let transitions = if traced then count_transitions () else 0 in
  {
    setup = 0.0;
    wall = explore_s +. mtta_s +. ever_s;
    size = size_of h;
    failures;
    digest =
      digest_of
        (string_of_int states :: Printf.sprintf "%h" mtta
        :: List.map (fun (_, v) -> Printf.sprintf "%h" v) unrel);
    layer =
      (if traced then
         [
           ("ctmc.explore_s", explore_s, "s");
           ("ctmc.states", float states, "count");
           ("ctmc.transitions", float transitions, "count");
           ("ctmc.states_per_s", float states /. explore_s, "1/s");
           ("ctmc.explore_words", explore_words, "words");
           ("ctmc.mtta_s", mtta_s, "s");
           ("ctmc.ever_s", ever_s, "s");
         ]
       else []);
    counts =
      (if traced then
         [ ("ctmc.states", states); ("ctmc.transitions", transitions) ]
       else []);
  }

let check_outcome laws_declared (structure : Analysis.Structure.t) diagnostics =
  let laws = structure.Analysis.Structure.laws in
  let failures =
    (if List.length laws = laws_declared then []
     else
       [
         Printf.sprintf "%d laws verified, %d declared" (List.length laws)
           laws_declared;
       ])
    @ List.filter_map
        (fun (l : Analysis.Structure.law_report) ->
          if l.lr_violations = [] && l.lr_unproven = [] then None
          else Some (Printf.sprintf "law %s not proved" l.lr_name))
        laws
    @ List.filter_map
        (fun (d : Analysis.Diagnostic.t) ->
          if d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error then
            Some
              (Format.asprintf "error diagnostic: %a" Analysis.Diagnostic.pp d)
          else None)
        diagnostics
  in
  let digest =
    digest_of
      (List.map
         (fun (l : Analysis.Structure.law_report) ->
           l.lr_name ^ " " ^ l.lr_how)
         laws
      @ List.map (Format.asprintf "%a" Analysis.Diagnostic.pp) diagnostics)
  in
  (failures, digest)

(* [itua_sim check --invariants --symmetry]. Untraced, the user's calls:
   [Analysis.Check.run] and [Analysis.Orbit.analyse]. Traced, the same
   work as the steps [Check.run] is made of, each timed, plus the
   structural analysis without laws, whose difference from the full one
   is the law proof. *)
let check_pass ~traced ~seed (h : Itua.Model.handles) =
  let model = h.Itua.Model.model and composition = h.Itua.Model.composition in
  let laws = Itua.Invariant.conservation_laws h in
  let merge diagnostics orbits =
    List.sort Analysis.Diagnostic.compare
      (diagnostics @ Analysis.Orbit.diagnostics orbits)
  in
  if not traced then begin
    let (report, orbits), wall =
      timed "analysis.check" (fun () ->
          let r = Analysis.Check.run ~composition ~laws ~seed model in
          (r, Analysis.Orbit.analyse model composition))
    in
    let diagnostics = merge report.Analysis.Check.diagnostics orbits in
    let failures, digest =
      check_outcome (List.length laws) report.Analysis.Check.structure
        diagnostics
    in
    {
      setup = 0.0;
      wall;
      size = size_of h;
      failures;
      digest;
      layer = [];
      counts = [];
    }
  end
  else begin
    let space, space_s =
      timed "analysis.space" (fun () -> Analysis.Space.build ~seed model)
    in
    let facts, gather_s =
      timed "analysis.passes.gather" (fun () -> Analysis.Passes.gather space)
    in
    let structure, structure_s =
      timed "analysis.structure" (fun () ->
          Analysis.Structure.analyse ~laws space)
    in
    let diagnostics, all_s =
      timed "analysis.passes.all" (fun () ->
          Analysis.Passes.all ~composition facts
          @ Analysis.Structure.diagnostics structure
          |> List.sort_uniq Analysis.Diagnostic.compare)
    in
    let orbits, orbit_s =
      timed "analysis.orbit" (fun () ->
          Analysis.Orbit.analyse model composition)
    in
    let (_ : Analysis.Structure.t), nolaws_s =
      timed "analysis.structure_nolaws" (fun () ->
          Analysis.Structure.analyse space)
    in
    let diagnostics = merge diagnostics orbits in
    let failures, digest =
      check_outcome (List.length laws) structure diagnostics
    in
    let n_diagnostics = List.length diagnostics in
    {
      setup = 0.0;
      wall = space_s +. gather_s +. structure_s +. all_s +. orbit_s;
      size = size_of h;
      failures;
      digest;
      layer =
        [
          ("analysis.space_s", space_s, "s");
          ("analysis.passes_s", gather_s +. all_s, "s");
          ("analysis.structure_s", structure_s, "s");
          ("analysis.structure_nolaws_s", nolaws_s, "s");
          ("analysis.orbit_s", orbit_s, "s");
          ("analysis.diagnostics", float n_diagnostics, "count");
        ];
      counts = [ ("analysis.diagnostics", n_diagnostics) ];
    }
  end

(* --- the workload's pass --- *)

(* The workload's pass. A simulation sweep builds each point's model
   inside the pass, as [Itua.Study] does; its [setup] is the sum of those
   builds. A single-model workload builds its model [n] times at the start
   of every pass and runs on the last one; its [setup] is the mean build.
   The builds are spread over the window with the passes, so their mean
   follows the host's speed through the run, and their count is fixed, so
   that every run allocates the same and the heap peak repeats. *)
let pass_of kind ~seed =
  let builds n params =
    let rec go k spent =
      let h, dt = build params in
      if k = n then (h, (spent +. dt) /. float n) else go (k + 1) (spent +. dt)
    in
    go 1 0.0
  in
  match kind with
  | Sim { points; reps } -> fun ~traced -> sim_pass ~traced ~seed ~reps points
  | Exact { params; reference } ->
      fun ~traced ->
        let h, setup = builds 2000 params in
        { (ctmc_pass ~traced ~reference h) with setup }
  | Check params ->
      fun ~traced ->
        let h, setup = builds 7 params in
        { (check_pass ~traced ~seed h) with setup }

(* Replications in one pass; a pass of the other workloads is one solve
   or one check. *)
let reps_per_pass = function
  | Sim { points; reps } -> reps * List.length points
  | Exact _ | Check _ -> 1

(* --- host record --- *)

let spin n =
  let x = ref 1 in
  for i = 1 to n do
    x := ((!x * 1103515245) + i) land 0x3FFFFFFF
  done;
  !x

(* Wall speedup of a fixed pure-compute loop run on two domains at once
   against one domain, best of three each. About 1 means one usable core. *)
let two_domain_speedup () =
  let n = 30_000_000 in
  let best f =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ ->
           let t0 = now_ns () in
           ignore (Sys.opaque_identity (f ()));
           seconds_since t0))
  in
  let one = best (fun () -> spin n) in
  let two =
    best (fun () ->
        let d = Domain.spawn (fun () -> spin n) in
        let a = spin n in
        a + Domain.join d)
  in
  2.0 *. one /. two

let host_record () =
  let nproc = Domain.recommended_domain_count () in
  let speedup = two_domain_speedup () in
  Printf.printf "host nproc=%d ocaml=%s two_domain_speedup=%.3f\n" nproc
    Sys.ocaml_version speedup;
  Report.Json.(
    Obj
      [
        ("nproc", int nproc);
        ("ocaml", Str Sys.ocaml_version);
        ("two_domain_speedup", Num speedup);
      ])

(* --- runs --- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_digest : string option;
}

(* One checked operation: it fails when any of its checks failed. *)
let record tally what failures =
  tally.attempted <- tally.attempted + 1;
  if failures <> [] then begin
    tally.failed <- tally.failed + 1;
    List.iter (Printf.printf "FAILED %s: %s\n" what) failures
  end

(* A measured pass also fails when its digest differs from the run's
   first pass. *)
let account tally what (p : pass) =
  let mismatch =
    match tally.first_digest with
    | None ->
        tally.first_digest <- Some p.digest;
        []
    | Some d when d = p.digest -> []
    | Some d -> [ Printf.sprintf "digest %s, first pass %s" p.digest d ]
  in
  record tally what (p.failures @ mismatch)

let untraced_run kind ~seed ~seconds tally =
  let pass = pass_of kind ~seed in
  (* Repeat the pass until [seconds] have passed, at least twice. The last
     pass may end past the window: a single-model pass takes about 11 s,
     and stopping before a pass that would overrun it would leave up to a
     third of the window unmeasured. *)
  let t0 = now_ns () and peak_heap_mb = ref 0.0 in
  let rec loop passes =
    let p = pass ~traced:false in
    account tally "pass" p;
    let passes = p :: passes in
    (* The heap's high-water mark after the first pass, as one command
       run from a fresh process would leave it. Later passes start from
       the garbage of earlier ones, so a sweep's peak keeps creeping up
       with however many passes fit the window. *)
    if List.length passes = 1 then
      peak_heap_mb :=
        float (Gc.quick_stat ()).Gc.top_heap_words
        *. float (Sys.word_size / 8)
        /. 1048576.0;
    if List.length passes < 2 || seconds_since t0 < seconds then loop passes
    else passes
  in
  let passes = List.rev (loop []) in
  (* Means over the whole window, not the median pass: a shared host's
     speed can switch between a fast and a slow mode in spells of 10-60 s,
     and a run's median pass jumps between the two modes while its mean
     moves only with the share of time spent in each (README.md). *)
  let walls = List.map (fun p -> p.wall) passes in
  let total_wall = List.fold_left ( +. ) 0.0 walls in
  let n_passes = List.length passes in
  Printf.printf "passes %d:%s\n" n_passes
    (String.concat "" (List.map (Printf.sprintf " %.4f") walls));
  [
    ("setup_s", mean (List.map (fun p -> p.setup) passes), "s");
    ("wall_s", total_wall /. float n_passes, "s");
    ( "reps_per_s",
      float (reps_per_pass kind * n_passes) /. total_wall,
      "1/s" );
    ("peak_heap_mb", !peak_heap_mb, "MB");
  ]

(* Per-replication costs of a simulation workload; none for the others. *)
let extras tally ~seed = function
  | Sim { points; reps } ->
      let layer, failures =
        span "per-replication costs" (fun () -> sim_extras ~seed ~reps points)
      in
      record tally "per-replication costs" failures;
      layer
  | Exact _ | Check _ -> []

(* A layer group the workload does not run, measured once on the probe
   configuration. *)
let probe tally ~seed kind =
  span "probe" (fun () ->
      let p = pass_of kind ~seed ~traced:true in
      record tally "probe" p.failures;
      p.layer @ extras tally ~seed kind)

let traced_run kind ~seed tally =
  let pass = pass_of kind ~seed in
  (* Untraced and traced passes alternate; a traced pass's wall leaves
     out the calls made only to measure. *)
  let run traced =
    let p =
      with_tracing traced (fun () -> span "pass" (fun () -> pass ~traced))
    in
    account tally (if traced then "traced pass" else "pass") p;
    p
  in
  let u1 = run false in
  let t1 = run true in
  let u2 = run false in
  let t2 = run true in
  record tally "determinism"
    (if t1.counts = t2.counts then []
     else [ "two traced passes of one seed gave different counts" ]);
  let overhead = ((t1.wall +. t2.wall) /. (u1.wall +. u2.wall)) -. 1.0 in
  let places, activities = t2.size in
  let model_layer =
    [
      ("model.build_s", t2.setup, "s");
      ("model.places", float places, "count");
      ("model.activities", float activities, "count");
    ]
  in
  let rest =
    with_tracing true (fun () ->
        extras tally ~seed kind
        @ List.concat_map (probe tally ~seed) (probes kind))
  in
  model_layer @ t2.layer @ rest @ [ ("trace_overhead_frac", overhead, "ratio") ]

let usage =
  "itua_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
   [--spans FILE]\n\
   workloads: "
  ^ String.concat ", " (List.map fst workloads)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20.0 in
  let trace = ref 0 and spans_path = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 20030622)");
      ("--seconds", Arg.Set_float seconds, "S measurement window (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced run");
      ("--spans", Arg.Set_string spans_path, "FILE write a traced run's spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match List.assoc_opt !workload workloads with
    | Some k -> k
    | None ->
        prerr_endline usage;
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || not (!seconds > 0.0) then begin
    prerr_endline usage;
    exit 2
  end;
  let run_id = Printf.sprintf "%s/%d" !workload !seed in
  Printf.printf "workload %s seed %d trace %d\n%!" !workload !seed !trace;
  let tally = { attempted = 0; failed = 0; first_digest = None } in
  let seed64 = Int64.of_int !seed in
  let metrics =
    if !trace = 0 then untraced_run kind ~seed:seed64 ~seconds:!seconds tally
    else traced_run kind ~seed:seed64 tally
  in
  Option.iter (Printf.printf "digest %s\n") tally.first_digest;
  let host = host_record () in
  if !trace = 1 then begin
    Printf.printf "%-34s %6s %12s %12s\n" "span" "count" "total_s" "self_s";
    List.iter
      (fun (name, (n, total, self)) ->
        Printf.printf "%-34s %6d %12.6f %12.6f\n" name n total self)
      (span_summary ());
    if !spans_path <> "" then write_spans !spans_path ~run_id ~host
  end;
  record tally "metrics"
    (List.filter_map
       (fun (name, v, _) ->
         if Float.is_finite v then None else Some (name ^ " is not finite"))
       metrics);
  List.iter
    (fun (name, v, unit_) -> Printf.printf "%-30s %.17g %s\n" name v unit_)
    metrics;
  Printf.printf "error_rate %.17g (%d of %d operations failed)\n"
    (float tally.failed /. float tally.attempted)
    tally.failed tally.attempted;
  let correct = tally.failed = 0 in
  let open Report.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", int tally.attempted);
            ("failed", int tally.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (name, v, unit_) ->
                     ( name,
                       Obj
                         [
                           ( "value",
                             Num (if Float.is_finite v then v else 0.0) );
                           ("unit", Str unit_);
                         ] ))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
