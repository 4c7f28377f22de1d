/* A recursive function: inlining cannot remove its call, so the
   converter rejects it with one E-CONVERT diagnostic. */
int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
