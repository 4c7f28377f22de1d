(** The paper's case studies (§1 Fig 2, §7.3 Figs 8-10), in the C subset. *)

open Workload

(** Fig 2: the motivating example. Sizes scaled from 10^5/10^6 to REPRO
    scale; the structure (false dependency between [A] and [B], unnecessary
    allocations, loop nest that reduces to a single statement) is intact. *)
let fig2_example =
  w "fig2-example" "motivating example: all loops elidable" "example"
    {|
#define N 300
#define M 400

int example() {
  int *A = (int*)malloc(M * sizeof(int));
  int *B = (int*)malloc(M * sizeof(int));
  for (int i = 0; i < N; i++) {
    A[i] = 5;
    for (int j = 0; j < M; j++)
      B[j] = A[i];
    for (int j = 0; j < M; j++)
      A[j] = A[i];
  }
  int res = B[0];
  free(A);
  free(B);
  return res;
}
|}
    (fun () -> [])

(** Fig 8: the Mish activation (x * tanh(softplus(x))) as the eager
    framework executes it — one traversal and one intermediate tensor per
    operator. Fusion + allocation elimination is exactly what the paper's
    pipeline recovers. *)
let mish_n = 3000

let mish_eager =
  w "mish-eager" "Mish activation, eager op-by-op form" "mish"
    {|
#define N 3000

void mish(double x[3000], double out[3000]) {
  double *e = (double*)malloc(N * sizeof(double));
  for (int i = 0; i < N; i++)
    e[i] = exp(x[i]);
  double *sp = (double*)malloc(N * sizeof(double));
  for (int i = 0; i < N; i++)
    sp[i] = log(1.0 + e[i]);
  double *th = (double*)malloc(N * sizeof(double));
  for (int i = 0; i < N; i++)
    th[i] = tanh(sp[i]);
  for (int i = 0; i < N; i++)
    out[i] = x[i] * th[i];
  free(e);
  free(sp);
  free(th);
}
|}
    (fun () ->
      [
        fvec mish_n (fun i -> (frand i *. 8.0) -. 4.0);
        fvec mish_n (fun _ -> 0.0);
      ])

(** The hand-fused form torch.jit reaches: one traversal, scalar temps, but
    the framework still works tensor-at-a-time upstream. *)
let mish_fused =
  w "mish-fused" "Mish activation, operator-fused form" "mish"
    {|
#define N 3000

void mish(double x[3000], double out[3000]) {
  for (int i = 0; i < N; i++) {
    double sp = log(1.0 + exp(x[i]));
    out[i] = x[i] * tanh(sp);
  }
}
|}
    (fun () ->
      [
        fvec mish_n (fun i -> (frand i *. 8.0) -. 4.0);
        fvec mish_n (fun _ -> 0.0);
      ])

(** Fig 9: the MILC multi-mass conjugate gradient snippet
    (congrad_multi_field.c). The multi-mass method updates one shifted
    solution/direction field per mass every iteration; the isolated snippet
    only consumes the zero-shift chain, so the shifted fields are dead —
    data-centric DCE removes them together with the loops that compute them
    (the paper's "eliminating two arrays ... explains the performance
    increase", at multi-mass scale). *)
let milc_n = 10000

let milc =
  w "milc" "MILC multi-mass CG snippet (dead shifted-mass fields)"
    "congrad_multi"
    {|
#define N 10000
#define NM 8
#define NITER 10

void congrad_multi(double x[10000], double b[10000], double diag[10000]) {
  double *r = (double*)malloc(N * sizeof(double));
  double *p = (double*)malloc(N * sizeof(double));
  double pm[8][10000];
  double xm[8][10000];
  double zeta[8];
  for (int i = 0; i < N; i++) {
    r[i] = b[i];
    p[i] = r[i];
    x[i] = 0.0;
  }
  for (int m = 0; m < NM; m++)
    for (int i = 0; i < N; i++) {
      pm[m][i] = b[i];
      xm[m][i] = 0.0;
    }
  for (int iter = 0; iter < NITER; iter++) {
    double pkp = 0.0;
    double rsq = 0.0;
    for (int i = 0; i < N; i++) {
      pkp += p[i] * diag[i] * p[i];
      rsq += r[i] * r[i];
    }
    double a = rsq / pkp;
    /* shifted-mass solution and direction updates: one pair per mass;
       the isolated snippet never consumes them */
    for (int m = 0; m < NM; m++)
      zeta[m] = 1.0 / (1.0 + 0.1 * (m + 1) * a);
    for (int m = 0; m < NM; m++)
      for (int i = 0; i < N; i++) {
        xm[m][i] += a * zeta[m] * pm[m][i];
        pm[m][i] = zeta[m] * r[i] + (1.0 - zeta[m]) * 0.5 * pm[m][i];
      }
    /* zero-shift chain: the only live dataflow */
    for (int i = 0; i < N; i++) {
      x[i] += a * p[i];
      r[i] -= a * diag[i] * p[i];
    }
    double rsqnew = 0.0;
    for (int i = 0; i < N; i++)
      rsqnew += r[i] * r[i];
    double bshift = rsqnew / rsq;
    for (int i = 0; i < N; i++)
      p[i] = r[i] + bshift * p[i];
  }
  free(r);
  free(p);
}
|}
    (fun () ->
      [
        fvec milc_n (fun _ -> 0.0);
        fvec milc_n (fun i -> frand (i + 1));
        fvec milc_n (fun i -> 1.0 +. frand (i + 2));
      ])

(** Fig 10: TheBandwidthBenchmark (RRZE) structure: four arrays, adjacent
    initialization loops, then per-round copy/scale/add/triad passes plus the
    sum kernel with its save/restore trick on [a[10]]. Adjacent element-wise
    loops are what loop fusion (control- or data-centric) exploits; the MLIR
    pipeline, lacking fusion, pays extra passes over memory. *)
let bw_n = 20000

let bandwidth =
  w "bandwidth" "memory bandwidth benchmark (init/copy/scale/add/triad/sum)"
    "bandwidth"
    {|
#define N 20000
#define NTIMES 2

void bandwidth(double a[20000], double b[20000], double c[20000],
               double d[20000], double res[4]) {
  double scalar = 0.5;
  double total = 0.0;
  for (int i = 0; i < N; i++)
    a[i] = 2.0;
  for (int i = 0; i < N; i++)
    b[i] = 2.0;
  for (int i = 0; i < N; i++)
    c[i] = 0.5;
  for (int i = 0; i < N; i++)
    d[i] = 1.0;
  for (int k = 0; k < NTIMES; k++) {
    for (int i = 0; i < N; i++)
      c[i] = a[i];
    for (int i = 0; i < N; i++)
      b[i] = scalar * c[i];
    for (int i = 0; i < N; i++)
      c[i] = a[i] + b[i];
    for (int i = 0; i < N; i++)
      a[i] = b[i] + scalar * c[i];
    double tmp = a[10];
    double sum = 0.0;
    for (int i = 0; i < N; i++)
      sum += a[i];
    a[10] = sum;
    a[10] = tmp;
    total += sum;
  }
  res[0] = total;
}
|}
    (fun () ->
      [
        fvec bw_n (fun _ -> 0.0);
        fvec bw_n (fun _ -> 0.0);
        fvec bw_n (fun _ -> 0.0);
        fvec bw_n (fun _ -> 0.0);
        fvec 4 (fun _ -> 0.0);
      ])

(** syrk at DaCe-frontend-unfriendly granularity is already in
    {!Polybench.syrk}; Fig 7 compares DaCe vs DCIR on it. *)

let all : Workload.t list =
  [ fig2_example; mish_eager; mish_fused; milc; bandwidth ]
