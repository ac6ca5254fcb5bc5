exception Stabilization_diverged of string

type config = {
  horizon : float;
  max_events : int;
  max_inst_chain : int;
  stop : (San.Marking.t -> bool) option;
}

let config ?(max_events = 1_000_000_000) ?(max_inst_chain = 1_000_000) ?stop
    ~horizon () =
  if not (horizon > 0.0) then invalid_arg "Executor.config: horizon must be > 0";
  { horizon; max_events; max_inst_chain; stop }

type outcome = {
  end_time : float;
  events : int;
  stopped_early : bool;
  final : San.Marking.t;
}

type checkpoint = {
  cp_marking : San.Marking.t;
  cp_heap : Event_heap.t;
  cp_versions : int array;
  cp_scheduled : Bytes.t;
  cp_now : float;
}

let checkpoint_time cp = cp.cp_now
let checkpoint_marking cp = cp.cp_marking

type split_outcome =
  | Finished of outcome
  | Crossed of { checkpoint : checkpoint; events : int }

type state = {
  model : San.Model.t;
  cfg : config;
  stream : Prng.Stream.t;
  ctx : San.Effect.ctx;  (* [stream], as effect programs take it *)
  prof : Obs.Profile.t option;
  marking : San.Marking.t;
  heap : Event_heap.t;
  versions : int array;  (* per activity: current scheduling version *)
  scheduled : Bytes.t;  (* per activity: has a live heap entry *)
  acts : San.Activity.t array;  (* the model's own array *)
  inst_ids : int array;  (* the model's instantaneous ids, ascending *)
  inst_on : Bytes.t;  (* per activity: instantaneous and enabled *)
  mutable n_on : int;  (* number of set flags in [inst_on] *)
  seen : int array;  (* per activity: generation stamp (see propagate) *)
  mutable gen : int;
  mutable now : float;
  mutable events : int;
  (* Run-local telemetry, folded into the caller's Metrics sink once at
     the end of the run. The scalar counters are bumped unconditionally;
     the per-activity arrays exist only when a sink was given ([counting]),
     so a plain run allocates no activity-sized array it never reads. *)
  counting : bool;
  firings : int array;
  cancellations : int array;
  resamples : int array;
  mutable setup_events : int;
  mutable chains : int;
  mutable chain_steps : int;
  mutable max_chain : int;
  mutable pops : int;
  mutable stale_pops : int;
  mutable depth_sum : int;
  mutable max_depth : int;
}

(* Phase-profiler shims: a single option match when profiling is off —
   the only cost the hot path pays for the instrumentation. *)
let[@inline] penter st ph =
  match st.prof with None -> () | Some p -> Obs.Profile.enter p ph

let[@inline] pleave st =
  match st.prof with None -> () | Some p -> Obs.Profile.leave p

(* Per-activity flags, one byte each: an eighth of a bool array, so a
   run's flag sets stay small enough for the minor heap. *)
let[@inline] flag b id = Bytes.unsafe_get b id <> '\000'

let[@inline] set_flag b id v =
  Bytes.unsafe_set b id (if v then '\001' else '\000')

let[@inline] bump st counters id =
  if st.counting then counters.(id) <- counters.(id) + 1

let sample_delay st (a : San.Activity.t) =
  match a.timing with
  | San.Activity.Instantaneous -> assert false
  | San.Activity.Timed _ ->
      penter st Obs.Profile.Sample;
      let d = Dist.sample (a.distribution st.marking) st.stream in
      pleave st;
      d

let schedule st (a : San.Activity.t) =
  let delay = sample_delay st a in
  penter st Obs.Profile.Heap_push;
  Event_heap.push st.heap ~time:(st.now +. delay) ~act:a.id
    ~version:st.versions.(a.id);
  pleave st;
  set_flag st.scheduled a.id true

let cancel st id =
  st.versions.(id) <- st.versions.(id) + 1;
  set_flag st.scheduled id false

(* Re-evaluate one timed activity after a marking change it depends on. *)
let reevaluate st (a : San.Activity.t) policy =
  if a.enabled st.marking then begin
    if not (flag st.scheduled a.id) then schedule st a
    else
      match policy with
      | San.Activity.Keep -> ()
      | San.Activity.Resample ->
          bump st st.resamples a.id;
          cancel st a.id;
          schedule st a
  end
  else if flag st.scheduled a.id then begin
    bump st st.cancellations a.id;
    cancel st a.id
  end

(* Re-test one instantaneous guard, keeping [n_on] in step. *)
let retest st id =
  let on = st.acts.(id).San.Activity.enabled st.marking in
  if on <> flag st.inst_on id then begin
    set_flag st.inst_on id on;
    st.n_on <- (if on then st.n_on + 1 else st.n_on - 1)
  end

(* The [k]-th enabled instantaneous activity in ascending id order. *)
let nth_on st k =
  let rec go i k =
    let id = st.inst_ids.(i) in
    if not (flag st.inst_on id) then go (i + 1) k
    else if k = 0 then id
    else go (i + 1) (k - 1)
  in
  go 0 k

let select_case st (a : San.Activity.t) =
  if Array.length a.cases = 1 then 0
  else begin
    let weights =
      Array.map (fun c -> c.San.Activity.case_weight st.marking) a.cases
    in
    Prng.Stream.categorical st.stream weights
  end

(* Fire [a] through case [c]; returns the list of changed place uids.
   Runs the case's compiled program, which consumes the stream exactly as
   [Effect.apply] on the source term does (pinned by a test). *)
let fire st (a : San.Activity.t) case =
  San.Marking.clear_journal st.marking;
  San.Effect.run_prog st.ctx a.cases.(case).San.Activity.prog st.marking;
  bump st st.firings a.id;
  San.Marking.journal st.marking

(* Propagate a marking change: re-evaluate the fired activity and every
   timed activity that declared a changed place in its reads, and re-test
   every instantaneous guard that reads a changed place according to the
   IR ([San.Model.guard_dependents]), each activity at most once.
   Deduplication uses a generation-stamped scratch array instead of a
   per-event table: bumping [gen] invalidates every stamp at once, so the
   only per-event cost is the activities actually visited. Instantaneous
   activities are skipped in the declared-reads table without a stamp, so
   the guard table still reaches them. *)
let propagate st (fired : San.Activity.t option) changed =
  penter st Obs.Profile.Propagate;
  st.gen <- st.gen + 1;
  let g = st.gen in
  (match fired with
  | Some ({ timing = San.Activity.Timed { policy; _ }; _ } as a) ->
      st.seen.(a.id) <- g;
      reevaluate st a policy
  | Some { timing = San.Activity.Instantaneous; _ } | None -> ());
  List.iter
    (fun uid ->
      let deps = San.Model.dependents st.model uid in
      for i = 0 to Array.length deps - 1 do
        let id = deps.(i) in
        match st.acts.(id) with
        | { timing = San.Activity.Timed { policy; _ }; _ } as a ->
            if st.seen.(id) <> g then begin
              st.seen.(id) <- g;
              reevaluate st a policy
            end
        | { timing = San.Activity.Instantaneous; _ } -> ()
      done;
      let gdeps = San.Model.guard_dependents st.model uid in
      for i = 0 to Array.length gdeps - 1 do
        let id = gdeps.(i) in
        if st.seen.(id) <> g then begin
          st.seen.(id) <- g;
          retest st id
        end
      done)
    changed;
  pleave st

(* Fire enabled instantaneous activities until none remain, choosing
   uniformly among the enabled set at each step: one [Stream.int n_on]
   draw picks the k-th enabled id in ascending order, the draw
   [Stream.choose_list] makes on the ordered enabled list.  [notify] is
   None during t = 0 setup (observers do not see setup firings). *)
let stabilize st ~notify =
  penter st Obs.Profile.Stabilize;
  let steps = ref 0 in
  while st.n_on > 0 do
    incr steps;
    if !steps > st.cfg.max_inst_chain then
      raise
        (Stabilization_diverged
           (Printf.sprintf
              "more than %d consecutive instantaneous firings at t=%g"
              st.cfg.max_inst_chain st.now));
    let a = st.acts.(nth_on st (Prng.Stream.int st.stream st.n_on)) in
    let case = select_case st a in
    let changed = fire st a case in
    propagate st None changed;
    match notify with
    | Some (observer : Observer.t) ->
        st.events <- st.events + 1;
        observer.on_fire st.now a case st.marking
    | None -> st.setup_events <- st.setup_events + 1
  done;
  if !steps > 0 then begin
    st.chains <- st.chains + 1;
    st.chain_steps <- st.chain_steps + !steps;
    if !steps > st.max_chain then st.max_chain <- !steps
  end;
  pleave st

(* Build executor state: fresh from the model's initial marking, or a
   private copy of a checkpoint (so several clones can resume from the
   same checkpoint, concurrently, without sharing mutable state). The
   activity array, the dependency tables and the instantaneous ids are
   the model's own, built once by [San.Model.Builder.build]; a run
   allocates only its marking (two array copies of the model's initial
   one), its scheduling state and, with [counting], its per-activity
   counters. The instantaneous enabled set is filled by one scan of their
   guards — at a checkpoint, a stable marking, it comes out empty. *)
let make_state ~model ~cfg ~stream ~prof ~counting ~from_ =
  let acts = San.Model.activities model in
  let n = Array.length acts in
  let inst_ids = San.Model.instantaneous_ids model in
  let counters () = Array.make (if counting then n else 0) 0 in
  let marking, heap, versions, scheduled, now =
    match from_ with
    | None ->
        ( San.Model.initial_marking model,
          Event_heap.create (),
          Array.make n 0,
          Bytes.make n '\000',
          0.0 )
    | Some cp ->
        (match prof with
        | None -> ()
        | Some p -> Obs.Profile.enter p Obs.Profile.Checkpoint);
        let cloned =
          ( San.Marking.copy cp.cp_marking,
            Event_heap.copy cp.cp_heap,
            Array.copy cp.cp_versions,
            Bytes.copy cp.cp_scheduled,
            cp.cp_now )
        in
        (match prof with None -> () | Some p -> Obs.Profile.leave p);
        cloned
  in
  let st =
    {
      model;
      cfg;
      stream;
      ctx = { San.Effect.stream = Some stream };
      prof;
      marking;
      heap;
      versions;
      scheduled;
      acts;
      inst_ids;
      inst_on = Bytes.make n '\000';
      n_on = 0;
      seen = Array.make n 0;
      gen = 0;
      now;
      events = 0;
      counting;
      firings = counters ();
      cancellations = counters ();
      resamples = counters ();
      setup_events = 0;
      chains = 0;
      chain_steps = 0;
      max_chain = 0;
      pops = 0;
      stale_pops = 0;
      depth_sum = 0;
      max_depth = 0;
    }
  in
  Array.iter (retest st) inst_ids;
  st

let checkpoint_of st =
  penter st Obs.Profile.Checkpoint;
  let cp =
    {
      cp_marking = San.Marking.copy st.marking;
      cp_heap = Event_heap.copy st.heap;
      cp_versions = Array.copy st.versions;
      cp_scheduled = Bytes.copy st.scheduled;
      cp_now = st.now;
    }
  in
  pleave st;
  cp

(* The shared engine behind [run], [resume] and [run_to_level].

   [cross], when given, is evaluated on *stable* markings only — at the
   start of the run (after t = 0 setup for fresh runs) and after every
   timed firing once its instantaneous chain has stabilized.  Returning
   true halts the run with a checkpoint of the current state; the
   horizon advance and [on_finish] are then *not* reported, because the
   trajectory is not finished — a clone will continue it. *)
let exec ?metrics ?profile ?from_ ?cross ?check_invariants ~model ~config:cfg
    ~stream ~observer:(observer : Observer.t) () =
  (match from_ with
  | Some cp
    when Array.length cp.cp_versions
         <> Array.length (San.Model.activities model) ->
      invalid_arg "Executor: checkpoint is from a different model"
  | Some _ | None -> ());
  (* Per-replication setup, t = 0 stabilization included (nested as its
     own phase), is charged to [Setup]. *)
  (match profile with
  | None -> ()
  | Some p -> Obs.Profile.enter p Obs.Profile.Setup);
  let st =
    make_state ~model ~cfg ~stream ~prof:profile
      ~counting:(Option.is_some metrics) ~from_
  in
  let guard () =
    match check_invariants with None -> () | Some f -> f st.marking
  in
  (match from_ with
  | None ->
      (* t = 0 setup: stabilize instantaneous activities silently, then
         schedule every enabled timed activity that the stabilization's own
         propagation has not already scheduled (scheduling it twice would
         leave two live completions racing — a doubled rate). *)
      stabilize st ~notify:None;
      Array.iter
        (fun (a : San.Activity.t) ->
          if
            (not (San.Activity.is_instantaneous a))
            && (not (flag st.scheduled a.id))
            && a.enabled st.marking
          then schedule st a)
        st.acts
  | Some _ ->
      (* Checkpoints are taken at stable markings with every enabled timed
         activity already scheduled in the copied heap: nothing to set up. *)
      ());
  pleave st;
  guard ();
  observer.Observer.on_init st.now st.marking;
  let stopped = ref false in
  let crossed = ref false in
  let check_stop () =
    match cfg.stop with
    | Some pred when pred st.marking -> stopped := true
    | Some _ | None -> ()
  in
  let check_cross () =
    match cross with
    | Some pred when (not !stopped) && pred st.marking -> crossed := true
    | Some _ | None -> ()
  in
  check_stop ();
  check_cross ();
  let finished = ref (!stopped || !crossed) in
  let last_event_time = ref st.now in
  while not !finished do
    let depth = Event_heap.size st.heap in
    penter st Obs.Profile.Heap_pop;
    let popped = Event_heap.pop st.heap in
    pleave st;
    match popped with
    | None -> finished := true
    | Some entry ->
        st.pops <- st.pops + 1;
        st.depth_sum <- st.depth_sum + depth;
        if depth > st.max_depth then st.max_depth <- depth;
        if entry.Event_heap.version <> st.versions.(entry.act) then
          st.stale_pops <- st.stale_pops + 1
        else begin
          if entry.time > cfg.horizon then begin
            (* Past the horizon: the popped completion is discarded; the
               marking holds through the end of the window. *)
            finished := true
          end
          else begin
            let a = st.acts.(entry.act) in
            if entry.time > st.now then
              observer.Observer.on_advance st.now entry.time st.marking;
            st.now <- entry.time;
            last_event_time := entry.time;
            set_flag st.scheduled a.id false;
            st.versions.(a.id) <- st.versions.(a.id) + 1;
            let case = select_case st a in
            let changed = fire st a case in
            propagate st (Some a) changed;
            st.events <- st.events + 1;
            observer.Observer.on_fire st.now a case st.marking;
            check_stop ();
            if not !stopped then begin
              stabilize st ~notify:(Some observer);
              guard ()
            end;
            check_stop ();
            check_cross ();
            if !stopped || !crossed then finished := true;
            if st.events >= cfg.max_events then finished := true
          end
        end
  done;
  let result =
    if !crossed then Crossed { checkpoint = checkpoint_of st; events = st.events }
    else begin
      if cfg.horizon > st.now then
        observer.Observer.on_advance st.now cfg.horizon st.marking;
      observer.Observer.on_finish cfg.horizon st.marking;
      Finished
        {
          end_time = !last_event_time;
          events = st.events;
          stopped_early = !stopped;
          final = st.marking;
        }
    end
  in
  (match metrics with
  | None -> ()
  | Some m ->
      Metrics.record_run m ~firings:st.firings
        ~cancellations:st.cancellations ~resamples:st.resamples
        ~events:st.events ~setup_events:st.setup_events ~chains:st.chains
        ~chain_steps:st.chain_steps ~max_chain:st.max_chain ~pops:st.pops
        ~stale_pops:st.stale_pops ~depth_sum:st.depth_sum
        ~max_depth:st.max_depth);
  result

let finished_exn = function
  | Finished o -> o
  | Crossed _ -> assert false (* no [cross] predicate was given *)

let run ?metrics ?profile ?check_invariants ~model ~config ~stream ~observer
    () =
  finished_exn
    (exec ?metrics ?profile ?check_invariants ~model ~config ~stream ~observer
       ())

let resume ?metrics ?profile ?check_invariants ~model ~config ~stream
    ~observer checkpoint =
  finished_exn
    (exec ?metrics ?profile ?check_invariants ~from_:checkpoint ~model ~config
       ~stream ~observer ())

let run_to_level ?metrics ?profile ?from_ ?check_invariants ~model ~config
    ~stream ~observer ~importance ~threshold () =
  exec ?metrics ?profile ?from_ ?check_invariants
    ~cross:(fun m -> importance m >= threshold)
    ~model ~config ~stream ~observer ()
