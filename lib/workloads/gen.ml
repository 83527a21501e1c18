(** Source-text generators for the cold bulk of the scientific
    workloads.

    Real SPEC programs are tens of thousands of lines, most of which
    execute rarely (option parsing, error paths, alternative modes).
    Reproducing that *shape* matters: it is what drives the paper's
    dead/constant code percentages, the VM warm-up overhead and the
    small relative kernel size of the scientific programs.  These
    helpers emit families of well-typed MiniC functions — each
    syntactically distinct, most never called at runtime — that the
    scientific workloads append to their hot kernels. *)

(** A family of [count] small integer helper functions named
    [prefix_0 .. prefix_{count-1}], each with a distinct expression
    tree, plus a dispatcher [prefix_dispatch(sel, x)] that calls one of
    them via an if-chain.  When the program only ever calls the
    dispatcher with a fixed [sel], exactly one helper is constant code
    and the rest are dead. *)
let int_helper_family ~prefix ~count =
  let buf = Buffer.create 4096 in
  for i = 0 to count - 1 do
    let a = 3 + (i mod 7) and b = 1 + (i mod 5) and c = i mod 3 in
    Printf.bprintf buf
      "int %s_%d(int x) {\n\
      \  int t = x * %d + %d;\n\
      \  if (t > %d) { t = t - (x >> %d); } else { t = t + (x << %d); }\n\
      \  return t ^ %d;\n\
       }\n"
      prefix i a b (100 + (17 * i)) (1 + c) (c + 1) (i * 31)
  done;
  Printf.bprintf buf "int %s_dispatch(int sel, int x) {\n" prefix;
  for i = 0 to count - 1 do
    Printf.bprintf buf "  if (sel == %d) { return %s_%d(x); }\n" i prefix i
  done;
  Printf.bprintf buf "  return 0;\n}\n";
  Buffer.contents buf

(** A family of float helper functions (dead analytics/reporting code in
    the original programs). *)
let float_helper_family ~prefix ~count =
  let buf = Buffer.create 4096 in
  for i = 0 to count - 1 do
    let k = 1.0 +. (0.25 *. float_of_int (i mod 9)) in
    Printf.bprintf buf
      "double %s_%d(double x) {\n\
      \  double u = x * %.2f + %.2f;\n\
      \  if (u < 0.0) { u = 0.0 - u; }\n\
      \  double v = u * u - x * %.2f;\n\
      \  if (v > 1000.0) { v = v / %.2f; }\n\
      \  return v + u;\n\
       }\n"
      prefix i k
      (0.5 +. float_of_int (i mod 4))
      (0.125 *. float_of_int (1 + (i mod 8)))
      (2.0 +. float_of_int (i mod 6))
  done;
  Printf.bprintf buf "double %s_eval(int sel, double x) {\n" prefix;
  for i = 0 to count - 1 do
    Printf.bprintf buf "  if (sel == %d) { return %s_%d(x); }\n" i prefix i
  done;
  Printf.bprintf buf "  return x;\n}\n";
  Buffer.contents buf

(** A complete "program modes" module for a scientific workload: three
    helper families with the coverage classes real SPEC codes show.

    - The {e live} family is dispatched once per outer iteration of the
      main loop ([<app>_step]), so every helper's frequency scales with
      the input — the paper's "live" class;
    - the {e config} family runs exactly once at startup
      ([<app>_startup]) — the "constant" class;
    - the {e dead} family sits behind a guard no input can satisfy —
      the "dead" class.

    The volume ratio of the three families reproduces the paper's
    scientific-code averages (roughly half live, a third dead, the rest
    constant, by static size). *)
let mode_family ~app ~live ~cfg ~dead =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf (int_helper_family ~prefix:(app ^ "_live") ~count:live);
  Buffer.add_string buf (int_helper_family ~prefix:(app ^ "_cfg") ~count:cfg);
  Buffer.add_string buf (int_helper_family ~prefix:(app ^ "_dead") ~count:dead);
  Printf.bprintf buf
    "int %s_startup() {\n\
    \  int s;\n\
    \  int acc = 0;\n\
    \  for (s = 0; s < %d; s = s + 1) {\n\
    \    acc = acc + %s_cfg_dispatch(s, s * 7 + 3);\n\
    \  }\n\
    \  return acc & 1023;\n\
     }\n"
    app cfg app;
  Printf.bprintf buf
    "int %s_step(int t) {\n\
    \  int v = %s_live_dispatch(t %% %d, t & 255);\n\
    \  if (t < -2000000000) {\n\
    \    v = v + %s_dead_dispatch(0, v);\n\
    \  }\n\
    \  return v & 255;\n\
     }\n"
    app app live app;
  Buffer.contents buf

(** A wide computational kernel: [phases] distinct loops of comparable
    cost over shared arrays, all called once per outer iteration by
    [<prefix>_run()].

    This reproduces the decisive property of the paper's scientific
    codes: the kernel (90 % of time) spans {e many} medium basic blocks
    (~1960 instructions on average), so the three blocks the @50pS3L
    filter keeps cover only a small fraction of it and the pruned ASIP
    ratio collapses toward 1.0 even though individual candidates are
    fast — Section V-D's central finding. *)
let phase_family ~prefix ~phases ~width ~float_ops =
  let buf = Buffer.create 16384 in
  if float_ops then
    Printf.bprintf buf "double %s_a[%d];\ndouble %s_b[%d];\n" prefix width
      prefix width
  else
    Printf.bprintf buf "int %s_a[%d];\nint %s_b[%d];\n" prefix width prefix
      width;
  Printf.bprintf buf
    "void %s_seed(int s) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n"
    prefix width;
  if float_ops then
    Printf.bprintf buf
      "    %s_a[i] = 0.5 + 0.001 * ((i * 13 + s) & 255);\n\
      \    %s_b[i] = 0.25 + 0.002 * ((i * 7 + s) & 127);\n"
      prefix prefix
  else
    Printf.bprintf buf
      "    %s_a[i] = (i * 13 + s) & 1023;\n\
      \    %s_b[i] = (i * 7 + s * 3) & 511;\n"
      prefix prefix;
  Buffer.add_string buf "  }\n}\n";
  for k = 0 to phases - 1 do
    let c1 = 0.5 +. (0.0625 *. float_of_int (k mod 8)) in
    let c2 = 0.25 +. (0.03125 *. float_of_int (k mod 6)) in
    Printf.bprintf buf "void %s_phase%d() {\n  int i;\n" prefix k;
    Printf.bprintf buf "  for (i = 0; i < %d; i = i + 1) {\n" width;
    if float_ops then begin
      (* Rotate among a few medium float expressions so each phase's
         block has a distinct data path. *)
      match k mod 4 with
      | 0 ->
          Printf.bprintf buf
            "    %s_a[i] = (%s_a[i] * %.4f + %s_b[i] * %.4f) * (%s_a[i] - \
             %s_b[i]) + %.4f;\n"
            prefix prefix c1 prefix c2 prefix prefix (c1 *. c2)
      | 1 ->
          Printf.bprintf buf
            "    %s_b[i] = %s_b[i] + %s_a[i] * (%.4f + %s_a[i] * (%.4f + \
             %s_a[i] * %.4f));\n"
            prefix prefix prefix c1 prefix c2 prefix (c1 -. c2)
      | 2 ->
          Printf.bprintf buf
            "    %s_a[i] = (%s_a[i] + %s_b[i]) * (%s_a[i] - %s_b[i]) * %.4f \
             + %s_b[i] * %.4f;\n"
            prefix prefix prefix prefix prefix c1 prefix c2
      | _ ->
          Printf.bprintf buf
            "    %s_b[i] = %s_a[i] * %s_b[i] * %.4f - (%s_a[i] - %.4f) * \
             (%s_b[i] + %.4f);\n"
            prefix prefix prefix c1 prefix c2 prefix (c1 +. c2)
    end
    else begin
      let m1 = 3 + (k mod 5) and m2 = 1 + (k mod 3) in
      match k mod 4 with
      | 0 ->
          Printf.bprintf buf
            "    %s_a[i] = ((%s_a[i] * %d + %s_b[i] * %d) >> %d) ^ (%s_a[i] \
             & %d);\n"
            prefix prefix m1 prefix m2 (1 + (k mod 3)) prefix (63 + k)
      | 1 ->
          Printf.bprintf buf
            "    %s_b[i] = (%s_b[i] + (%s_a[i] << %d) - (%s_a[i] >> %d)) & \
             %d;\n"
            prefix prefix prefix m2 prefix m1 (1023 + k)
      | 2 ->
          Printf.bprintf buf
            "    %s_a[i] = (%s_a[i] ^ (%s_b[i] * %d)) + ((%s_a[i] >> %d) | \
             (%s_b[i] & %d));\n"
            prefix prefix prefix m1 prefix m2 prefix (255 + k)
      | _ ->
          Printf.bprintf buf
            "    %s_b[i] = %s_a[i] * %d - %s_b[i] * %d + ((%s_a[i] + \
             %s_b[i]) >> %d);\n"
            prefix prefix m1 prefix m2 prefix prefix (1 + (k mod 4))
    end;
    Buffer.add_string buf "  }\n}\n"
  done;
  Printf.bprintf buf "void %s_run() {\n" prefix;
  for k = 0 to phases - 1 do
    Printf.bprintf buf "  %s_phase%d();\n" prefix k
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** A phase family for the {e phase-shifting} workloads: like
    {!phase_family} the kernel spans [phases] distinct loops over
    shared arrays, but instead of a [<prefix>_run()] that executes all
    phases each outer iteration, it emits a [<prefix>_select(ph)]
    dispatcher that runs exactly {e one} phase.  The caller's main loop
    decides which phase is hot {e when} — the property the online
    controller adapts to and an offline whole-run profile averages
    away.

    Every phase body is one fat float expression (many multiplies and
    adds over two array loads), so each phase contributes a distinct,
    clearly profitable MAXMISO candidate rooted in its own basic
    block. *)
let shifting_phase_family ~prefix ~phases ~width =
  let buf = Buffer.create 16384 in
  Printf.bprintf buf "double %s_a[%d];\ndouble %s_b[%d];\n" prefix width prefix
    width;
  Printf.bprintf buf
    "void %s_seed(int s) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
    \    %s_a[i] = 0.5 + 0.001 * ((i * 13 + s) & 255);\n\
    \    %s_b[i] = 0.25 + 0.002 * ((i * 7 + s) & 127);\n\
    \  }\n\
     }\n"
    prefix width prefix prefix;
  for k = 0 to phases - 1 do
    let c1 = 0.5 +. (0.0625 *. float_of_int (k mod 8)) in
    let c2 = 0.25 +. (0.03125 *. float_of_int (k mod 6)) in
    let c3 = 1.0 +. (0.125 *. float_of_int (k mod 4)) in
    Printf.bprintf buf "void %s_phase%d() {\n  int i;\n" prefix k;
    Printf.bprintf buf "  for (i = 0; i < %d; i = i + 1) {\n" width;
    (match k mod 3 with
    | 0 ->
        Printf.bprintf buf
          "    %s_a[i] = (%s_a[i] * %.4f + %s_b[i] * %.4f) * (%s_a[i] - \
           %s_b[i]) + (%s_b[i] * %.4f - %s_a[i] * %.4f);\n"
          prefix prefix c1 prefix c2 prefix prefix prefix c3 prefix (c1 *. c2)
    | 1 ->
        Printf.bprintf buf
          "    %s_b[i] = %s_b[i] * (%.4f + %s_a[i] * (%.4f + %s_a[i] * \
           %.4f)) - %s_a[i] * (%s_b[i] + %.4f) * %.4f;\n"
          prefix prefix c1 prefix c2 prefix c3 prefix prefix (c2 +. c3)
          (c1 -. c2)
    | _ ->
        Printf.bprintf buf
          "    %s_a[i] = (%s_a[i] + %s_b[i]) * (%s_a[i] - %.4f) * %.4f + \
           (%s_b[i] * %s_b[i] - %s_a[i] * %.4f) * %.4f;\n"
          prefix prefix prefix prefix c1 c2 prefix prefix prefix c3
          (c1 +. c2));
    Buffer.add_string buf "  }\n}\n"
  done;
  Printf.bprintf buf "void %s_select(int ph) {\n" prefix;
  for k = 0 to phases - 1 do
    Printf.bprintf buf "  if (ph == %d) { %s_phase%d(); return; }\n" k prefix k
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
